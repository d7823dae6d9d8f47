"""Exception hierarchy shared across the toolkit.

All validation failures raised on bad user input derive from
:class:`MoodlyricsError`; the CLI maps them to exit code 2.
"""


class MoodlyricsError(Exception):
    """Base class for user-facing validation failures."""


class UsageError(MoodlyricsError):
    """Bad flags, config keys, or setting values."""


class CorpusError(MoodlyricsError):
    """Bad corpus file, label, or split request."""


class TokenizerError(MoodlyricsError):
    """Invalid tokenizer configuration or vocabulary file."""


class AnalyticsError(MoodlyricsError):
    """Invalid input to a corpus statistic or plot."""


class ModelError(MoodlyricsError):
    """Invalid model configuration, checkpoint, or forward input."""


class BaselineError(MoodlyricsError):
    """Invalid baseline training input or model file."""


class TrainerError(MoodlyricsError):
    """Invalid training configuration or a diverged run."""


class EvaluationError(MoodlyricsError):
    """Invalid evaluation input."""
