"""Sites, query points and radii for the tests of ``domain.SiteGrid`` and
of the two searches that use it."""

import math

from hypothesis import strategies as st

from citysense.domain import EARTH_RADIUS_M, GeoPoint

# Where points cluster: a city, both poles, either side of the antimeridian,
# or nowhere in particular (None).
CENTRES = [(43.716, 10.3966), (89.999, 0.0), (-89.99, 120.0), (0.0, 179.999),
           (-10.0, -179.99), (60.0, 180.0), None]
RADII = st.sampled_from([0.0, 1e-9, 1e-3, 1.0, 300.0, 500.0, 1e4, 1e6, 1e7, math.inf])


@st.composite
def grid_cases(draw, min_sites=0):
    """(sites, queries, radius_m): (id, position) sites with distinct ids and
    query points around one centre, with queries at or about the radius
    from a site and pairs of sites at equal distance from a query."""
    centre = draw(st.sampled_from(CENTRES))
    spread = draw(st.sampled_from([1e-9, 1e-5, 1e-3, 0.05, 1.0, 40.0]))

    def point():
        if centre is None:
            return GeoPoint(draw(st.floats(-90, 90)), draw(st.floats(-180, 180)))
        lat = centre[0] + draw(st.floats(-spread, spread))
        lon = centre[1] + draw(st.floats(-spread, spread))
        lon = lon - 360.0 if lon > 180.0 else lon + 360.0 if lon < -180.0 else lon
        return GeoPoint(min(90.0, max(-90.0, lat)), min(180.0, max(-180.0, lon)))

    positions = [point() for _ in range(draw(st.integers(min_sites, 12)))]
    radius = draw(RADII | st.floats(0.0, 3e7))
    queries = [point() for _ in range(draw(st.integers(1, 8)))]
    for site in draw(st.lists(st.sampled_from(positions), max_size=6)) if positions else []:
        # a copy of a site, or a point up to about the radius away from it
        reach = math.degrees(min(radius, 1e6) / EARTH_RADIUS_M) * draw(st.floats(-1.2, 1.2))
        east = reach / max(math.cos(math.radians(site.lat)), 1e-3) * draw(st.floats(-1, 1))
        lat, lon = site.lat + reach * draw(st.floats(-1, 1)), site.lon + east
        if -90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0:
            queries.append(GeoPoint(lat, lon))
    for q in draw(st.lists(st.sampled_from(queries), max_size=2)):
        delta = 2.0 ** -draw(st.integers(2, 30))
        if -180.0 <= q.lon - delta and q.lon + delta <= 180.0:  # a tie: east and west of q
            positions += [GeoPoint(q.lat, q.lon + delta), GeoPoint(q.lat, q.lon - delta)]
    ids = draw(st.permutations([f"S{i:02d}" for i in range(len(positions))]))
    return list(zip(ids, positions)), queries, radius
