"""Structure recognition: rule-based analog pattern matching."""

from .recognition import RecognizedBlock, recognize_rules

__all__ = ["RecognizedBlock", "recognize_rules"]
