"""The one exception the toolkit raises on bad user input.

Every refusal of a flag, setting, file or value is a
:class:`MoodlyricsError` whose message names what was wrong; the CLI prints
it as one ``error:`` line and exits 2.
"""


class MoodlyricsError(Exception):
    """A user-facing validation failure."""
