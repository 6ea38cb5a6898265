import hypothesis

# derandomized and without an example database, so two runs of one commit
# draw the same examples
hypothesis.settings.register_profile(
    "impsolve", deadline=None, max_examples=40, derandomize=True, database=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
hypothesis.settings.load_profile("impsolve")
