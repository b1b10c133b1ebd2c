"""One shared hypothesis profile for the property tests.

Examples are exact rational and symbolic computations whose time varies
with the drawn algebra and with the host's load, so no per-example
deadline is set."""

try:
    from hypothesis import settings
except ImportError:  # the property-test modules skip themselves then
    pass
else:
    settings.register_profile("orbitvar", deadline=None)
    settings.load_profile("orbitvar")
