"""The provider and prompt error classes, apart from the modules that raise them.

`cli.EXIT_CODES` names these classes, so every command can map them to an
exit code without importing `providers` or `prompts`; those modules
re-export them.
"""


class ProviderError(Exception):
    """Base class for completion failures."""


class ProviderConfigError(ProviderError):
    """The provider is not usable as configured (e.g. missing API key)."""


class PromptError(Exception):
    """Base class for template and response-handling failures."""
