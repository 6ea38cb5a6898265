"""Exception types shared across the package; anything but a
``ComparisonEquation`` where one is needed is a ``TypeError`` instead."""


class SpecFormatError(ValueError):
    """An equation file or dictionary is malformed or violates a validation rule."""


class DomainError(RuntimeError):
    """A numerically well-posed request has no answer of the required kind.

    Raised, for example, when a convergence certificate is requested at a
    point where the comparison iteration diverges, or when a linear
    resolvent does not exist because the matrix to solve with is singular.
    """
