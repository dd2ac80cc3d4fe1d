"""Semantic-type vocabularies for synthetic data lakes.

The paper evaluates on Open Data / WDC corpora whose key property (for
Starmie's contribution) is that *the same value domain appears in many
table contexts*: a ``Year`` or ``City`` column means different things in
a travel-expenses table vs. a bird-sightings table (Fig. 1 of the
paper). We reproduce that property with deterministic synthetic
vocabularies: each semantic type has a token pool; **shared (ambiguous)
types** (year, city, date, state, month, person names) draw from one
global pool used by many domains, while **domain-specific types** have
disjoint pools.

Everything is deterministic in the seed so tests and the DuckDB oracle
see identical data.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_CONSONANTS = list("bcdfghjklmnprstvwz")
_VOWELS = list("aeiou")


def make_words(seed: int, n: int, syllables: tuple[int, int] = (2, 4), title: bool = True) -> list[str]:
    """Deterministic pronounceable synthetic words (unique within the pool)."""
    g = np.random.default_rng(seed)
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < n:
        k = int(g.integers(syllables[0], syllables[1] + 1))
        w = "".join(g.choice(_CONSONANTS) + g.choice(_VOWELS) for _ in range(k))
        if w in seen:
            continue
        seen.add(w)
        out.append(w.capitalize() if title else w)
    return out


@dataclass(frozen=True)
class TypeSpec:
    """A semantic column type: name, value kind, and a value pool/range.

    ``kind`` is one of ``text`` (draw from ``pool``), ``numeric`` (uniform
    in ``[lo, hi]`` with ``decimals`` digits), or ``int`` (uniform ints).
    ``shared`` marks ambiguous types whose pool is reused across domains.
    """

    name: str
    kind: str  # "text" | "numeric" | "int"
    pool: tuple[str, ...] = ()
    lo: float = 0.0
    hi: float = 1.0
    decimals: int = 2
    shared: bool = False

    @property
    def is_numeric(self) -> bool:
        return self.kind in ("numeric", "int")

    def sample(self, n: int, g: np.random.Generator) -> list[str]:
        """Draw ``n`` string cell values for this type."""
        if self.kind == "text":
            return [str(v) for v in g.choice(np.asarray(self.pool, dtype=object), n)]
        if self.kind == "int":
            return [str(int(v)) for v in g.integers(int(self.lo), int(self.hi) + 1, n)]
        vals = g.random(n) * (self.hi - self.lo) + self.lo
        return [f"{v:.{self.decimals}f}" for v in vals]


def _text(name: str, seed: int, n: int, shared: bool = False, fmt=None,
          syll=(2, 4), title: bool = True) -> TypeSpec:
    words = make_words(seed, n, syll, title=title)
    if fmt is not None:
        words = [fmt(w, i) for i, w in enumerate(words)]
    return TypeSpec(name=name, kind="text", pool=tuple(words), shared=shared)


def _num(name: str, lo: float, hi: float, decimals: int = 2, shared: bool = False) -> TypeSpec:
    return TypeSpec(name=name, kind="numeric", lo=lo, hi=hi, decimals=decimals, shared=shared)


def _int(name: str, lo: int, hi: int, shared: bool = False) -> TypeSpec:
    return TypeSpec(name=name, kind="int", lo=lo, hi=hi, shared=shared)


def _build_types() -> dict[str, TypeSpec]:
    months = ("January", "February", "March", "April", "May", "June", "July",
              "August", "September", "October", "November", "December")
    # Second words of two-word values, built once per pool.
    surnames = make_words(9103, 320)
    epithets = make_words(9204, 130, title=False)
    director_surnames = make_words(9226, 90)
    t: list[TypeSpec] = [
        # ---- shared / ambiguous types (the Fig. 1 failure mode) ----
        TypeSpec("year", "int", lo=1980, hi=2023, shared=True),
        _text("city", 101, 140, shared=True),
        _text("state", 102, 45, shared=True, syll=(1, 2),
              fmt=lambda w, i: w[:2].upper() + str(i % 7)),
        TypeSpec("month", "text", pool=months, shared=True),
        TypeSpec("date", "text", shared=True, pool=tuple(
            f"{d:02d}/{m:02d}" for m in range(1, 13) for d in range(1, 29))),
        _text("person_name", 103, 320, shared=True,
              fmt=lambda w, i: w + " " + surnames[i]),
        _text("country", 104, 60, shared=True),
        # ---- domain-specific text types (disjoint pools) ----
        _text("travel_mode", 201, 8),
        _text("purpose", 202, 48, fmt=lambda w, i: w + " " + ["Meeting", "Visit", "Review", "Audit"][i % 4]),
        _text("species_common", 203, 130, fmt=lambda w, i: w + " " + ["Finch", "Robin", "Owl", "Heron", "Wren"][i % 5]),
        _text("species_sci", 204, 130, fmt=lambda w, i: w + " " + epithets[i]),
        _text("school", 205, 150, fmt=lambda w, i: w + " " + ["Elementary School", "High School", "Academy", "Middle School"][i % 4]),
        _text("store", 206, 120, fmt=lambda w, i: w + " " + ["Market", "Grocery", "Co-op", "Foods"][i % 4]),
        _text("song", 207, 220),
        _text("artist", 208, 110, fmt=lambda w, i: "The " + w if i % 3 == 0 else w),
        _text("party", 209, 5, syll=(3, 4)),
        _text("breed", 210, 70, fmt=lambda w, i: w + " " + ["Terrier", "Hound", "Spaniel", "Retriever"][i % 4]),
        _text("dog_show", 211, 80, fmt=lambda w, i: w + " Kennel Club"),
        _text("company", 212, 130, fmt=lambda w, i: w + " " + ["Inc", "LLC", "Corp", "Group"][i % 4]),
        _text("airline", 213, 40, fmt=lambda w, i: w + " Air"),
        _text("airport", 214, 90, fmt=lambda w, i: w[:3].upper() + str(i % 10)),
        _text("hotel", 215, 110, fmt=lambda w, i: w + " " + ["Hotel", "Inn", "Lodge", "Suites"][i % 4]),
        _text("dish", 216, 140),
        _text("ingredient", 217, 120, title=False),
        _text("disease", 218, 90, fmt=lambda w, i: w + "itis" if i % 3 == 0 else w),
        _text("drug", 219, 110, fmt=lambda w, i: w + ["ol", "ine", "ax", "um"][i % 4]),
        _text("crop", 220, 70),
        _text("mineral", 221, 80, fmt=lambda w, i: w + "ite"),
        _text("team", 222, 64, fmt=lambda w, i: w + " " + ["FC", "United", "City", "Rovers"][i % 4]),
        _text("sport", 223, 20),
        _text("league", 224, 16, fmt=lambda w, i: w + " League"),
        _text("movie", 225, 180),
        _text("director", 226, 90, fmt=lambda w, i: w + " " + director_surnames[i]),
        _text("genre", 227, 14),
        _text("language", 228, 30),
        _text("museum", 229, 90, fmt=lambda w, i: w + " Museum"),
        _text("bridge", 230, 70, fmt=lambda w, i: w + " Bridge"),
        _text("river", 231, 80, fmt=lambda w, i: w + " River"),
        _text("mountain", 232, 80, fmt=lambda w, i: "Mount " + w),
        _text("library", 233, 80, fmt=lambda w, i: w + " Library"),
        _text("course", 234, 110, fmt=lambda w, i: w + " " + ["101", "201", "301"][i % 3]),
        _text("department", 235, 40, fmt=lambda w, i: "Dept of " + w),
        _text("product", 236, 150),
        _text("color", 237, 18),
        _text("ship", 238, 80, fmt=lambda w, i: "SS " + w),
        _text("port", 239, 70, fmt=lambda w, i: "Port " + w),
        _text("satellite", 240, 60, fmt=lambda w, i: w + "-" + str(i % 9 + 1)),
        _text("agency", 241, 40, fmt=lambda w, i: w.upper()[:4]),
        _text("gene", 242, 110, fmt=lambda w, i: w[:4].upper() + str(i % 20)),
        _text("protein", 243, 110, fmt=lambda w, i: w + "ase"),
        _text("beer", 244, 90, fmt=lambda w, i: w + " " + ["IPA", "Lager", "Stout", "Ale"][i % 4]),
        _text("brewery", 245, 70, fmt=lambda w, i: w + " Brewing"),
        _text("park", 246, 90, fmt=lambda w, i: w + " Park"),
        _text("trail", 247, 80, fmt=lambda w, i: w + " Trail"),
        # ---- numeric types ----
        _num("money", 1, 5000, 2),
        _num("temperature", -20, 45, 1),
        _num("humidity", 5, 100, 0),
        _num("rating_val", 0, 100, 1),
        _num("price", 1, 900, 2),
        _num("duration_min", 1, 240, 0),
        _num("distance_km", 0.5, 8000, 1),
        _num("weight_kg", 0.1, 900, 1),
        _num("gpa", 0, 4, 2),
        _num("abv", 3, 13, 1),
        _int("enrollment", 50, 4000),
        _int("population", 1000, 9000000),
        _int("points", 0, 120),
        _int("attendance", 100, 90000),
        _int("floors", 1, 120),
        _int("length_m", 10, 3000),
        _int("elevation_m", 50, 8800),
        _int("capacity", 20, 100000),
        _int("copies", 1, 60),
        _int("credits", 1, 6),
        _int("stock", 0, 5000),
        _int("wins", 0, 40),
        _int("losses", 0, 40),
        _int("beds", 10, 900),
        _int("runtime", 60, 220),
    ]
    # The synthetic word factory can, rarely, emit the same word under two
    # different type seeds. Domain-specific pools must be disjoint (the
    # shared/ambiguous types are the *only* deliberate cross-domain
    # vocabulary), so drop later collisions.
    seen: set[str] = set()
    out: list[TypeSpec] = []
    for s in t:
        if s.kind == "text" and not s.shared:
            pool = tuple(v for v in s.pool if v not in seen)
            seen.update(pool)
            s = TypeSpec(name=s.name, kind=s.kind, pool=pool, shared=s.shared)
        elif s.kind == "text":
            seen.update(s.pool)
        out.append(s)
    return {s.name: s for s in out}


TYPES: dict[str, TypeSpec] = _build_types()


@dataclass(frozen=True)
class Domain:
    """A table class: a named schema of (column name, semantic type) pairs."""

    name: str
    columns: tuple[tuple[str, str], ...]  # (col_name, type_name)


def _d(name: str, *cols: tuple[str, str]) -> Domain:
    for _, t in cols:
        assert t in TYPES, f"unknown type {t}"
    return Domain(name=name, columns=tuple(cols))


# 36 domains. Shared/ambiguous types (year, city, date, state, month,
# person_name, country) deliberately recur across unrelated domains so
# that value-based methods confuse them while context separates them.
DOMAINS: tuple[Domain, ...] = (
    _d("travel_expenses", ("Name", "person_name"), ("Mode of Travel", "travel_mode"),
       ("Purpose", "purpose"), ("Destination", "city"), ("Month", "month"),
       ("Year", "year"), ("Expense", "money")),
    _d("bird_sightings", ("Bird Name", "species_common"), ("Scientific Name", "species_sci"),
       ("Date", "date"), ("Year", "year"), ("Location", "city")),
    _d("school_directory", ("School", "school"), ("City", "city"), ("State", "state"),
       ("Enrollment", "enrollment"), ("Year", "year")),
    _d("music_tracks", ("Song", "song"), ("Artist", "artist"), ("Duration", "duration_min"),
       ("Year", "year"), ("Genre", "genre")),
    _d("congress_votes", ("Name", "person_name"), ("State", "state"), ("Party", "party"),
       ("Rating", "rating_val"), ("Year", "year")),
    _d("dog_shows", ("Show", "dog_show"), ("State", "state"), ("City", "city"),
       ("Date", "date"), ("Breed", "breed"), ("Points", "points")),
    _d("grocery_coops", ("Store", "store"), ("City", "city"), ("State", "state"),
       ("Stock", "stock")),
    _d("weather_daily", ("City", "city"), ("Date", "date"), ("Temperature", "temperature"),
       ("Humidity", "humidity")),
    _d("flight_routes", ("Airline", "airline"), ("Origin", "airport"), ("Destination", "airport"),
       ("Distance", "distance_km"), ("Duration", "duration_min")),
    _d("hotel_listings", ("Hotel", "hotel"), ("City", "city"), ("Country", "country"),
       ("Price", "price"), ("Beds", "beds")),
    _d("restaurant_menu", ("Dish", "dish"), ("Ingredient", "ingredient"), ("Price", "price"),
       ("Rating", "rating_val")),
    _d("clinical_cases", ("Disease", "disease"), ("Drug", "drug"), ("Year", "year"),
       ("City", "city")),
    _d("crop_yields", ("Crop", "crop"), ("Country", "country"), ("Year", "year"),
       ("Weight", "weight_kg")),
    _d("mineral_deposits", ("Mineral", "mineral"), ("Country", "country"),
       ("Elevation", "elevation_m"), ("Weight", "weight_kg")),
    _d("sports_standings", ("Team", "team"), ("League", "league"), ("Wins", "wins"),
       ("Losses", "losses"), ("Year", "year")),
    _d("match_attendance", ("Team", "team"), ("Sport", "sport"), ("City", "city"),
       ("Date", "date"), ("Attendance", "attendance")),
    _d("movie_catalog", ("Movie", "movie"), ("Director", "director"), ("Genre", "genre"),
       ("Year", "year"), ("Runtime", "runtime")),
    _d("film_awards", ("Movie", "movie"), ("Person", "person_name"), ("Year", "year"),
       ("Country", "country")),
    _d("language_stats", ("Language", "language"), ("Country", "country"),
       ("Population", "population")),
    _d("museum_guide", ("Museum", "museum"), ("City", "city"), ("Country", "country"),
       ("Capacity", "capacity"), ("Year", "year")),
    _d("bridge_registry", ("Bridge", "bridge"), ("River", "river"), ("Length", "length_m"),
       ("Year", "year"), ("State", "state")),
    _d("mountain_peaks", ("Mountain", "mountain"), ("Country", "country"),
       ("Elevation", "elevation_m")),
    _d("library_holdings", ("Library", "library"), ("City", "city"), ("Copies", "copies"),
       ("Year", "year")),
    _d("course_catalog", ("Course", "course"), ("Department", "department"),
       ("Credits", "credits"), ("Year", "year")),
    _d("student_gpa", ("Name", "person_name"), ("Department", "department"), ("GPA", "gpa"),
       ("Year", "year")),
    _d("product_inventory", ("Product", "product"), ("Color", "color"), ("Price", "price"),
       ("Stock", "stock")),
    _d("shipping_manifest", ("Ship", "ship"), ("Port", "port"), ("Country", "country"),
       ("Date", "date"), ("Weight", "weight_kg")),
    _d("satellite_launches", ("Satellite", "satellite"), ("Agency", "agency"),
       ("Year", "year"), ("Country", "country")),
    _d("gene_expression", ("Gene", "gene"), ("Protein", "protein"), ("Disease", "disease")),
    _d("beer_reviews", ("Beer", "beer"), ("Brewery", "brewery"), ("ABV", "abv"),
       ("Rating", "rating_val"), ("State", "state")),
    _d("park_trails", ("Park", "park"), ("Trail", "trail"), ("Distance", "distance_km"),
       ("State", "state")),
    _d("city_population", ("City", "city"), ("State", "state"), ("Population", "population"),
       ("Year", "year")),
    _d("company_offices", ("Company", "company"), ("City", "city"), ("Country", "country"),
       ("Floors", "floors")),
    _d("employee_salaries", ("Name", "person_name"), ("Company", "company"),
       ("Salary", "money"), ("Year", "year")),
    _d("concert_tours", ("Artist", "artist"), ("City", "city"), ("Date", "date"),
       ("Attendance", "attendance")),
    _d("drug_prices", ("Drug", "drug"), ("Company", "company"), ("Price", "price"),
       ("Year", "year")),
)

DOMAIN_BY_NAME: dict[str, Domain] = {d.name: d for d in DOMAINS}
