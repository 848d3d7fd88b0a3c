use std::fmt;

/// Errors produced while constructing, simulating, or parsing logic networks.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LogicError {
    /// A net id referenced a net that does not exist in the network.
    UnknownNet(usize),
    /// A net name was used twice.
    DuplicateName(String),
    /// A net is driven by more than one source (gate output, input, constant).
    MultipleDrivers(String),
    /// A net has no driver but is read by a gate or output.
    Undriven(String),
    /// A gate was given the wrong number of inputs for its kind.
    Arity {
        /// The gate kind as text.
        kind: &'static str,
        /// Inputs supplied.
        got: usize,
        /// A human-readable description of the expected arity.
        expected: &'static str,
    },
    /// The network contains a combinational cycle.
    CombinationalCycle(String),
    /// A simulation was started with the wrong number of input values.
    InputLen {
        /// Values supplied.
        got: usize,
        /// Primary inputs of the network.
        expected: usize,
    },
    /// A parse error in a BLIF or PLA source, with 1-based line number.
    Parse {
        /// 1-based line where the error was detected.
        line: usize,
        /// Explanation of what went wrong.
        message: String,
    },
    /// A truth table was requested with too many variables to materialize.
    TruthTooLarge(usize),
}

impl fmt::Display for LogicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogicError::UnknownNet(id) => write!(f, "unknown net id {id}"),
            LogicError::DuplicateName(name) => write!(f, "duplicate net name `{name}`"),
            LogicError::MultipleDrivers(name) => {
                write!(f, "net `{name}` has more than one driver")
            }
            LogicError::Undriven(name) => write!(f, "net `{name}` is read but never driven"),
            LogicError::Arity {
                kind,
                got,
                expected,
            } => write!(f, "gate `{kind}` given {got} inputs, expected {expected}"),
            LogicError::CombinationalCycle(name) => {
                write!(f, "combinational cycle through net `{name}`")
            }
            LogicError::InputLen { got, expected } => {
                write!(
                    f,
                    "simulation got {got} input values, network has {expected} inputs"
                )
            }
            LogicError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            LogicError::TruthTooLarge(n) => {
                write!(
                    f,
                    "truth table over {n} variables is too large to materialize"
                )
            }
        }
    }
}

impl std::error::Error for LogicError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_mentions_payload() {
        let cases: Vec<(LogicError, &str)> = vec![
            (LogicError::UnknownNet(7), "7"),
            (LogicError::DuplicateName("x".into()), "x"),
            (LogicError::MultipleDrivers("y".into()), "y"),
            (LogicError::Undriven("z".into()), "z"),
            (
                LogicError::Arity {
                    kind: "and",
                    got: 1,
                    expected: "at least 2",
                },
                "and",
            ),
            (LogicError::CombinationalCycle("loop".into()), "loop"),
            (
                LogicError::InputLen {
                    got: 1,
                    expected: 2,
                },
                "2",
            ),
            (
                LogicError::Parse {
                    line: 3,
                    message: "bad token".into(),
                },
                "line 3",
            ),
            (LogicError::TruthTooLarge(40), "40"),
        ];
        for (err, needle) in cases {
            let text = err.to_string();
            assert!(!text.is_empty());
            assert!(text.contains(needle), "`{text}` should contain `{needle}`");
        }
    }

    #[test]
    fn error_is_std_error() {
        fn takes_error<E: std::error::Error>(_e: E) {}
        takes_error(LogicError::UnknownNet(0));
    }
}
