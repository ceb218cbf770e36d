from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# a longer, reproducible run for CI's parser-oracle step
# (--hypothesis-profile=deep overrides the default loaded below)
settings.register_profile(
    "deep", settings.get_profile("suite"), max_examples=2000, derandomize=True
)
settings.load_profile("suite")
