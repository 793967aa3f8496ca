"""SQL dialect modelling: feature gates and script translation.

The study's first classification question for every (bug, server) pair
is *can this bug script run on that server at all?*  This package
answers it the way the authors did:

* each server product has a :class:`~repro.dialects.features.DialectDescriptor`
  describing which gated features, type spellings, and functions it
  accepts;
* :func:`~repro.dialects.translator.translate_script` mechanically
  rewrites synonym-level differences (``VARCHAR2`` → ``VARCHAR``,
  ``SUBSTR`` → ``SUBSTRING``, ...) and raises
  :class:`~repro.errors.FeatureNotSupported` for genuinely
  untranslatable constructs — the paper's "functionality missing" /
  dialect-specific category.
"""

from repro.dialects.features import (
    DIALECTS,
    FEATURE_SUPPORT,
    SERVER_KEYS,
    DialectDescriptor,
    dialect,
)
from repro.dialects.translator import translate_script

__all__ = [
    "DIALECTS",
    "DialectDescriptor",
    "FEATURE_SUPPORT",
    "SERVER_KEYS",
    "dialect",
    "translate_script",
]
