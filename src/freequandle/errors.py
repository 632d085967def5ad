"""Exception types shared across the package."""


class FreeQuandleError(Exception):
    """Base class for all errors raised by this package."""


class InvalidLetter(FreeQuandleError):
    """A letter refers to a generator outside the alphabet."""


class AlphabetMismatch(FreeQuandleError):
    """Two values from different alphabets were combined."""


class NotInFreeQuandle(FreeQuandleError):
    """A group word is not a conjugate of a generator."""


class UnknownGenerator(FreeQuandleError):
    """A parsed name is not a generator of the declared alphabet."""


class MalformedExponent(FreeQuandleError):
    """A letter token has an exponent other than ^-1."""


class EmptyGeneratorSet(FreeQuandleError):
    """A closure was requested for an empty generating set."""


class BoundTooSmall(FreeQuandleError):
    """A generator's tail exceeds the closure bound."""


class ClosureTooLarge(FreeQuandleError):
    """A closure enumeration exceeded its element budget."""


class NotInClosure(FreeQuandleError):
    """An element cannot be expressed: it is not in the closure."""


class WitnessNotFound(FreeQuandleError):
    """A derivation term does not replay to the element it derives."""


class EmptyInputWord(FreeQuandleError):
    """The independence check received an identity word."""
