"""The simulator's two exception types, one per CLI exit code: a refused
document, override, sweep axis or command stream is a `ScenarioError`
(exit 1); any other refusal of a model is a `SimulationError` (exit 2)."""


class SimulationError(Exception):
    """A refusal of a simulator model; the base of `ScenarioError`."""


class ScenarioError(SimulationError):
    """A refused input, named in the message."""
