"""Shared error types with CLI exit-code semantics, and the run budget
that raises one of them."""

import math
import time


class InputError(ValueError):
    """Malformed user input (bad code, bad group spec): exit code 1."""


class CapExceeded(RuntimeError):
    """A configured resource cap was hit: exit code 2."""


class Deadline:
    """Wall-clock budget checked between major pipeline steps, once per
    level's ring and, while a level's value is built, once per monomial
    suffix, once per block of ring products, and once per block of rows
    fed into a sum of terms or into an intersection of monomials.
    ``Deadline()`` has an infinite budget and never expires; a budget
    that is not a number of seconds (None included) raises InputError, and
    so does NaN, which no elapsed time would exceed."""

    def __init__(self, seconds=math.inf):
        if isinstance(seconds, bool) or not isinstance(seconds, (int, float)) or math.isnan(seconds):
            raise InputError(f"budget {seconds!r} is not a number of seconds")
        self.seconds = seconds
        self.start = time.monotonic()

    def check(self):
        if time.monotonic() - self.start > self.seconds:
            raise CapExceeded(f"time budget of {self.seconds}s exhausted")
