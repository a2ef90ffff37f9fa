"""Command-line entry point of the `frugal` package."""
