"""Example budgets for the property tests that pin ``max_examples``.

Tier-1 (hypothesis's default profile) runs each at its pinned budget;
under a larger profile (CI runs some files with
``--hypothesis-profile=large``) the profile's budget wins.  This lives in
its own module rather than in ``conftest.py``: with several
``conftest.py`` files in the tree, ``from conftest import ...`` binds
whichever one pytest imported last.
"""

from hypothesis import settings


def budget(examples: int) -> int:
    """``examples`` under the default profile, else at least the active
    profile's budget."""
    active = settings.default.max_examples
    if active == settings.get_profile("default").max_examples:
        return examples
    return max(examples, active)
