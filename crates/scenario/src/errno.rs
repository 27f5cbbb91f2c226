//! The symbolic errno names used by the scenario language.
//!
//! The paper's plan snippets write `errno="EBADF"`; this module maps the
//! common POSIX errno names to the numeric values injected into the
//! simulated process's `errno` slot (Linux x86 numbering).

/// Name/value pairs for the errno constants the scenario language accepts.
pub(crate) const ERRNO_TABLE: &[(&str, i64)] = &[
    ("EPERM", 1),
    ("ENOENT", 2),
    ("ESRCH", 3),
    ("EINTR", 4),
    ("EIO", 5),
    ("ENXIO", 6),
    ("E2BIG", 7),
    ("ENOEXEC", 8),
    ("EBADF", 9),
    ("ECHILD", 10),
    ("EAGAIN", 11),
    ("ENOMEM", 12),
    ("EACCES", 13),
    ("EFAULT", 14),
    ("ENOTBLK", 15),
    ("EBUSY", 16),
    ("EEXIST", 17),
    ("EXDEV", 18),
    ("ENODEV", 19),
    ("ENOTDIR", 20),
    ("EISDIR", 21),
    ("EINVAL", 22),
    ("ENFILE", 23),
    ("EMFILE", 24),
    ("ENOTTY", 25),
    ("ETXTBSY", 26),
    ("EFBIG", 27),
    ("ENOSPC", 28),
    ("ESPIPE", 29),
    ("EROFS", 30),
    ("EMLINK", 31),
    ("EPIPE", 32),
    ("EDOM", 33),
    ("ERANGE", 34),
    ("EDEADLK", 35),
    ("ENAMETOOLONG", 36),
    ("ENOLCK", 37),
    ("ENOSYS", 38),
    ("ENOTEMPTY", 39),
    ("ELOOP", 40),
    ("ENOMSG", 42),
    ("ENOLINK", 67),
    ("EPROTO", 71),
    ("EBADMSG", 74),
    ("EOVERFLOW", 75),
    ("EMSGSIZE", 90),
    ("ECONNRESET", 104),
    ("ENOBUFS", 105),
    ("ENOTCONN", 107),
    ("ETIMEDOUT", 110),
    ("ECONNREFUSED", 111),
    ("EHOSTUNREACH", 113),
    ("EINPROGRESS", 115),
    ("EWOULDBLOCK", 11),
];

/// Resolves an errno name (e.g. `"EBADF"`) to its numeric value.
pub fn errno_value(name: &str) -> Option<i64> {
    ERRNO_TABLE.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

/// Resolves a numeric errno value back to its canonical name, if known.
pub fn errno_name(value: i64) -> Option<&'static str> {
    ERRNO_TABLE.iter().find(|(_, v)| *v == value).map(|(n, _)| *n)
}

/// Parses an errno written either symbolically (`"EBADF"`) or numerically
/// (`"9"`).
pub(crate) fn parse_errno(text: &str) -> Option<i64> {
    errno_value(text).or_else(|| text.parse::<i64>().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_names_resolve() {
        assert_eq!(errno_value("EBADF"), Some(9));
        assert_eq!(errno_value("EIO"), Some(5));
        assert_eq!(errno_value("EINTR"), Some(4));
        assert_eq!(errno_value("ENOMEM"), Some(12));
        assert_eq!(errno_value("ENOSPC"), Some(28));
        assert_eq!(errno_value("ENOLINK"), Some(67));
        assert_eq!(errno_value("EBOGUS"), None);
    }

    #[test]
    fn names_round_trip() {
        for (name, value) in ERRNO_TABLE {
            if *name == "EWOULDBLOCK" {
                continue; // alias of EAGAIN
            }
            assert_eq!(errno_name(*value), Some(*name), "{name}");
        }
        assert_eq!(errno_name(-1), None);
    }

    #[test]
    fn parse_accepts_names_and_numbers() {
        assert_eq!(parse_errno("EBADF"), Some(9));
        assert_eq!(parse_errno("17"), Some(17));
        assert_eq!(parse_errno("-4"), Some(-4));
        assert_eq!(parse_errno("junk"), None);
    }
}
