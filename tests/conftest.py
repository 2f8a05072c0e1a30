"""Suite-wide settings: hypothesis runs derandomized and bounded, so every
run of the suite draws the same examples and takes the same time."""

from hypothesis import settings

settings.register_profile("ybgates", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("ybgates")
