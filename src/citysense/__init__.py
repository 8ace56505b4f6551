"""citysense: deterministic simulation and analytics for urban air-quality
monitoring with mixed fixed/mobile sensor networks. Each name is imported
from the module that owns it (``citysense.field.FieldModel``, ...)."""

import logging

__version__ = "0.1.0"

# The package logs (an empty uplink batch is a warning) but configures no
# output: without a handler of its own, Python's last-resort handler would
# print its records bare to stderr.
logging.getLogger(__name__).addHandler(logging.NullHandler())
