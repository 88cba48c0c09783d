"""Shared training hyperparameters, the one SGD epoch loop that trains every
model, and the one tie rule (`rank_order`) that orders every model's scores."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from dialeval import DataError, NumericalError

INIT_STD = 0.1  # all parameters start i.i.d. normal(0, INIT_STD)


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    dim: int = 50
    epochs: int = 10
    margin: float = 0.1       # hinge margin for the embedding ranker
    n_neg: int = 10           # negatives per training step
    n_dicts: int = 1          # 1 shared, 2 input/output, 3 input/memory/output
    seed: int = 0
    hops: int = 1             # attention hops (0 allowed: no memory reads)
    hash_n: int = 0           # trailing messages hashed for long-term memory; 0 = all
    hash_cutoff: int = 500    # tokens in more facts than this are ignored
    max_memories: int = 50

    def validate(self) -> "TrainConfig":
        if self.learning_rate <= 0:
            raise DataError("learning_rate must be > 0")
        if self.dim < 1:
            raise DataError("dim must be >= 1")
        if self.margin < 0:
            raise DataError("margin must be >= 0")
        if self.n_neg < 1:
            raise DataError("n_neg must be >= 1")
        if self.n_dicts not in (1, 2, 3):
            raise DataError("n_dicts must be 1, 2 or 3")
        if self.hops < 0:
            raise DataError("hops must be >= 0")
        if self.hash_cutoff < 1:
            raise DataError("hash_cutoff must be >= 1")
        return self

    def to_text(self) -> str:
        return "".join(f"{k}={v}\n" for k, v in sorted(asdict(self).items()))

    @classmethod
    def from_text(cls, text: str) -> "TrainConfig":
        kwargs = {}
        fields = cls.__dataclass_fields__
        for line in text.splitlines():
            if not line.strip():
                continue
            key, _, value = line.partition("=")
            if key not in fields:
                raise DataError(f"unknown config key {key!r}")
            typ = fields[key].type
            try:
                kwargs[key] = float(value) if typ == "float" else int(value)
            except ValueError:
                raise DataError(f"{key}={value!r}: expected {typ}") from None
        return cls(**kwargs).validate()


def rank_order(scores: np.ndarray) -> np.ndarray:
    """Candidate indices by score, highest first; ties by index, ascending."""
    return np.lexsort((np.arange(len(scores)), -scores))


def check_finite(**arrays: np.ndarray) -> None:
    """Raise NumericalError naming the first array with a non-finite value."""
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise NumericalError(f"non-finite values in {name}")


def sgd_epochs(n: int, step, check, epochs: int, rng, log_fn=None) -> list[float]:
    """Plain SGD over n examples: each epoch shuffles their indices with `rng`
    (the trainer's own `random.Random` or numpy `Generator`) and calls
    `step(i)`, which updates the parameters and returns example i's loss;
    then `check()` raises NumericalError on non-finite parameters.  Errors
    name the epoch and example.  Returns, and logs, each epoch's mean loss."""
    if n < 1:
        raise NumericalError("empty training data")
    order = list(range(n))
    epoch_losses = []
    for epoch in range(epochs):
        rng.shuffle(order)
        total = 0.0
        for i in order:
            try:
                total += step(i)
            except NumericalError as e:
                raise NumericalError(f"epoch {epoch} example {i}: {e}") from e
        try:
            check()
        except NumericalError as e:
            raise NumericalError(f"after epoch {epoch}: {e}") from e
        mean_loss = total / n
        epoch_losses.append(mean_loss)
        if log_fn:
            log_fn(epoch, mean_loss)
    return epoch_losses
