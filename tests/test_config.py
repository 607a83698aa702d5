"""The suite's own settings: pyproject turns every warning into an error."""

import warnings

import pytest


def test_only_the_typeddict_deprecation_is_forgiven():
    # hypothesis's report hook warns that mypy_extensions.TypedDict is
    # deprecated; as an error it stopped the run with INTERNALERROR at the
    # first failing hypothesis test, and the later failures went unreported
    warnings.warn("mypy_extensions.TypedDict is deprecated, and will be "
                  "removed in a future version.", DeprecationWarning)
    for message, category in (
            ("some other name is deprecated", DeprecationWarning),
            ("not mypy_extensions.TypedDict is deprecated", DeprecationWarning),
            ("mypy_extensions.TypedDict is deprecated", UserWarning)):
        with pytest.raises(category, match=message):
            warnings.warn(message, category)
