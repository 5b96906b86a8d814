use std::fmt::{self, Display};

/// Error from serializing to or deserializing from JSON.
pub struct Error {
    msg: Box<str>,
    /// Byte offset into the input, for syntax errors.
    offset: Option<usize>,
}

pub type Result<T> = std::result::Result<T, Error>;

impl Error {
    pub(crate) fn syntax(msg: impl Display, offset: usize) -> Error {
        Error {
            msg: msg.to_string().into_boxed_str(),
            offset: Some(offset),
        }
    }

    pub(crate) fn message(msg: impl Display) -> Error {
        Error {
            msg: msg.to_string().into_boxed_str(),
            offset: None,
        }
    }

    pub(crate) fn at(mut self, offset: usize) -> Error {
        self.offset.get_or_insert(offset);
        self
    }
}

impl Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(offset) => write!(f, "{} at byte {offset}", self.msg),
            None => f.write_str(&self.msg),
        }
    }
}

impl fmt::Debug for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Error({:?}", self.msg)?;
        if let Some(offset) = self.offset {
            write!(f, ", byte: {offset}")?;
        }
        f.write_str(")")
    }
}

impl std::error::Error for Error {}

impl serde::ser::Error for Error {
    fn custom<T: Display>(msg: T) -> Error {
        Error::message(msg)
    }
}

impl serde::de::Error for Error {
    fn custom<T: Display>(msg: T) -> Error {
        Error::message(msg)
    }
}

impl From<std::io::Error> for Error {
    fn from(err: std::io::Error) -> Error {
        Error::message(err)
    }
}

impl From<Error> for std::io::Error {
    fn from(err: Error) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, err.to_string())
    }
}
