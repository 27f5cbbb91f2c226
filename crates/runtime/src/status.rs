use std::fmt;

/// The signals the simulated applications can die with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Signal {
    /// `SIGABRT` — e.g. a failed allocation assertion (the Pidgin crash in
    /// §6.1).
    Abort,
    /// `SIGSEGV` — e.g. dereferencing a null pointer returned by an injected
    /// fault (the MySQL crashes in §6.1).
    Segv,
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Signal::Abort => f.write_str("SIGABRT"),
            Signal::Segv => f.write_str("SIGSEGV"),
        }
    }
}

/// How a simulated program run ended.  The LFI controller's monitoring script
/// records exactly this: "whether it terminates normally or with an error
/// exit code" (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExitStatus {
    /// The program exited with the given status code.
    Exited(i32),
    /// The program was killed by a signal.
    Crashed(Signal),
}

impl ExitStatus {
    /// True when the program exited with status 0.
    pub fn is_success(&self) -> bool {
        matches!(self, ExitStatus::Exited(0))
    }

    /// True when the program was killed by a signal.
    pub fn is_crash(&self) -> bool {
        matches!(self, ExitStatus::Crashed(_))
    }
}

impl fmt::Display for ExitStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExitStatus::Exited(code) => write!(f, "exited with status {code}"),
            ExitStatus::Crashed(signal) => write!(f, "killed by {signal}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(ExitStatus::Exited(0).is_success());
        assert!(!ExitStatus::Exited(1).is_success());
        assert!(!ExitStatus::Exited(0).is_crash());
        assert!(ExitStatus::Crashed(Signal::Abort).is_crash());
        assert!(!ExitStatus::Crashed(Signal::Segv).is_success());
    }

    #[test]
    fn display() {
        assert_eq!(ExitStatus::Exited(2).to_string(), "exited with status 2");
        assert_eq!(ExitStatus::Crashed(Signal::Abort).to_string(), "killed by SIGABRT");
        assert_eq!(ExitStatus::Crashed(Signal::Segv).to_string(), "killed by SIGSEGV");
    }
}
