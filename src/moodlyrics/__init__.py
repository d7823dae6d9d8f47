"""Mood classification toolkit for song lyrics.

Subpackages cover the full desk-scale pipeline: corpus ingestion and
cleaning, WordPiece tokenization, lexical analytics, a small transformer
encoder classifier trained from scratch, a Naive Bayes baseline, and
evaluation reports. The ``moodlyrics`` console script wires them
together.
"""

__version__ = "0.1.0"
