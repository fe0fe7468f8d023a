"""Stance classification for rumourous tweet threads.

Tweets replying to a rumour are labelled support / deny / query / comment
from a wide sparse feature set — bag of words, word clusters, POS n-grams,
surface and user statistics, and embedding-cosine confidence scores — with
from-scratch tree, forest, and k-NN learners and a leave-one-rumour-out
evaluation harness built for feature-group ablation.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .corpus import CLASS_ORDER, StanceLabel, load_dataset
from .errors import StanceError

__all__ = [
    "CLASS_ORDER",
    "StanceLabel",
    "StanceError",
    "__version__",
    "load_dataset",
]
