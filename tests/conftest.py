"""Shared test settings.

Property tests run with no per-example deadline, since one example at
n = 64 can take tens of milliseconds on a loaded host, and with
derandomized example generation, so every run draws the same inputs.
"""

from hypothesis import settings

settings.register_profile("orbit-atlas", deadline=None, derandomize=True)
settings.load_profile("orbit-atlas")
