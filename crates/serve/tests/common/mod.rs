//! Shared helpers for the serve integration tests: a minimal HTTP client
//! matching the service's connection-per-request contract, and a harness
//! that runs the real `flowc-serve` binary with OS-assigned ports
//! (`--addr 127.0.0.1:0` + `--port-file`), so parallel tests and CI
//! runners never collide on a hardcoded port.

#![allow(dead_code)] // each test binary uses its own subset

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use flowc_report::Json;

/// One HTTP exchange against the server; transport errors come back as
/// `Err` so crash tests can race requests against a dying process.
pub fn try_call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, Json)> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(10)))?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes())?;
    let mut raw = String::new();
    s.read_to_string(&mut raw)?;
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status line"))?;
    let body = raw.split("\r\n\r\n").nth(1).unwrap_or("");
    let json = if body.is_empty() {
        Json::Null
    } else {
        Json::parse(body)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?
    };
    Ok((status, json))
}

/// One HTTP exchange against the server (connection-per-request, exactly
/// like the service's own `Connection: close` contract).
pub fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Json) {
    try_call(addr, method, path, body).expect("http exchange")
}

pub fn submit(addr: SocketAddr, body: &str) -> (u16, Json) {
    call(addr, "POST", "/submit", body)
}

/// Polls `/status` until the job reaches a terminal state; panics on
/// timeout. Returns the terminal state name.
pub fn await_terminal(addr: SocketAddr, id: u64, timeout: Duration) -> String {
    let deadline = Instant::now() + timeout;
    loop {
        let (status, json) = call(addr, "GET", &format!("/status?id={id}"), "");
        assert_eq!(status, 200, "status for {id}: {}", json.to_compact());
        let state = json
            .get("state")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        if !matches!(state.as_str(), "queued" | "running") {
            return state;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} still `{state}` after {timeout:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A submit body for a 24-bit ripple adder in the natural (worst-case)
/// variable order: its shared-BDD build alone runs for tens of seconds,
/// so the job holds its worker until cancelled.
pub fn wide_adder_job() -> String {
    let mut n = flowc_logic::Network::new("wide-add");
    let a: Vec<_> = (0..24).map(|i| n.add_input(format!("a{i}"))).collect();
    let b: Vec<_> = (0..24).map(|i| n.add_input(format!("b{i}"))).collect();
    let cin = n.add_input("cin");
    let (sum, cout) =
        flowc_logic::bench_suite::blocks::ripple_adder(&mut n, &a, &b, cin, "fa").unwrap();
    for s in sum {
        n.mark_output(s);
    }
    n.mark_output(cout);
    Json::Obj(vec![
        ("circuit".into(), Json::str(flowc_logic::blif::write(&n))),
        ("format".into(), Json::str("blif")),
        ("strategy".into(), Json::str("staircase")),
        ("deadline_ms".into(), Json::Num(120_000.0)),
    ])
    .to_compact()
}

/// Polls `/status` until the job is `running` (a worker has claimed it).
pub fn await_running(addr: SocketAddr, id: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (_, json) = call(addr, "GET", &format!("/status?id={id}"), "");
        if json.get("state").and_then(Json::as_str) == Some("running") {
            return;
        }
        assert!(Instant::now() < deadline, "job {id} never started running");
        std::thread::sleep(Duration::from_millis(10));
    }
}

pub fn metrics(addr: SocketAddr) -> Json {
    let (status, json) = call(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    json
}

pub fn counter(m: &Json, name: &str) -> u64 {
    m.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing counter {name}: {}", m.to_compact()))
}

/// A scratch directory under the workspace `target/` tree (so CI can
/// upload it as a failure artifact), cleared on entry.
pub fn scratch_dir(group: &str, tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target")
        .join(group)
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

static PORT_FILE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A real `flowc-serve` child process. Killing it (SIGKILL — no drain, no
/// destructors) is the crash under test; [`ServerProc::drop`] also kills,
/// so a panicking test never leaks a server.
pub struct ServerProc {
    child: Child,
    /// The discovered listen address.
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawns the binary with `--addr 127.0.0.1:0 --port-file <tmp>` plus
    /// `extra` flags and `envs`, then blocks until the port file appears
    /// and `/healthz` answers.
    pub fn spawn(extra: &[&str], envs: &[(&str, &str)]) -> ServerProc {
        let port_file = std::env::temp_dir().join(format!(
            "flowc-serve-port-{}-{}",
            std::process::id(),
            PORT_FILE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&port_file);
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_flowc-serve"));
        cmd.arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--port-file")
            .arg(&port_file)
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("spawn flowc-serve");

        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            if let Some(status) = child.try_wait().expect("child wait") {
                panic!("flowc-serve exited during startup: {status}");
            }
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(port) = text.trim().parse::<u16>() {
                    if port != 0 {
                        break SocketAddr::from(([127, 0, 0, 1], port));
                    }
                }
            }
            assert!(Instant::now() < deadline, "server never wrote --port-file");
            std::thread::sleep(Duration::from_millis(10));
        };
        let _ = std::fs::remove_file(&port_file);

        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok((200, _)) = try_call(addr, "GET", "/healthz", "") {
                break;
            }
            assert!(Instant::now() < deadline, "server never became healthy");
            std::thread::sleep(Duration::from_millis(10));
        }
        ServerProc { child, addr }
    }

    /// SIGKILL — the kernel-level crash the journal must survive — and
    /// reap the child.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Waits (up to `timeout`) for the child to die on its own — used
    /// when a failpoint inside the server is expected to abort it.
    pub fn wait_for_death(&mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            match self.child.try_wait().expect("child wait") {
                Some(_) => return true,
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        false
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill();
    }
}
