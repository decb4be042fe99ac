"""Error types shared by every module of the package."""


class MeasureError(ValueError):
    """A measure description violates one of its invariants."""


class ScheduleError(ValueError):
    """A frequency schedule is malformed or spans too few windows."""
