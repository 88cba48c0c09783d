"""Movie-dialog benchmark: task generation, retrieval models, ranking evaluation."""


class DataError(Exception):
    """Malformed or inconsistent input data (bad file line, missing gold, ...)."""


class NumericalError(Exception):
    """Training or scoring produced a non-finite value; the run is aborted."""


__all__ = ["DataError", "NumericalError"]
