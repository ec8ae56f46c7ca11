"""Domain archetypes: hand-written schema blueprints for twelve domains.

Each :class:`DomainSpec` describes the tables a database in that domain
*may* contain, with semantic words, column types, value pools, optional
descriptions and FK edges. The generator samples concrete databases from
these blueprints (core tables always present, optional tables sampled),
then applies a naming style (clean for Spider-like, dirty for BIRD-like).

The domains are modelled on the ones the paper's examples come from
(formula_1 racing, california schools, thrombosis laboratory tests) plus
the spread of professional domains BIRD advertises.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.schema.column import ColumnType

__all__ = ["ColumnSpec", "TableSpec", "DomainSpec", "ALL_DOMAINS", "domain_by_name"]

_TYPES = {
    "int": ColumnType.INTEGER,
    "real": ColumnType.REAL,
    "text": ColumnType.TEXT,
    "date": ColumnType.DATE,
    "bool": ColumnType.BOOLEAN,
}


@dataclass(frozen=True)
class ColumnSpec:
    """Blueprint for one column."""

    words: tuple[str, ...]
    ctype: ColumnType
    value_pool: str
    description: "str | None" = None
    is_primary: bool = False


@dataclass(frozen=True)
class TableSpec:
    """Blueprint for one table; ``fks`` are (column words, ref table words,
    ref column words) triples resolved at generation time."""

    words: tuple[str, ...]
    columns: tuple[ColumnSpec, ...]
    fks: tuple[tuple[str, str, str], ...] = ()
    core: bool = True
    description: "str | None" = None


@dataclass(frozen=True)
class DomainSpec:
    """Blueprint for a domain: tables plus external-knowledge snippets."""

    name: str
    tables: tuple[TableSpec, ...]
    knowledge: tuple[str, ...] = ()

    @property
    def core_tables(self) -> tuple[TableSpec, ...]:
        return tuple(t for t in self.tables if t.core)

    @property
    def optional_tables(self) -> tuple[TableSpec, ...]:
        return tuple(t for t in self.tables if not t.core)


def _c(
    words: str,
    ctype: str = "text",
    value_pool: str = "word",
    desc: "str | None" = None,
    pk: bool = False,
) -> ColumnSpec:
    """Compact column constructor; ``words`` is a space-separated phrase."""
    return ColumnSpec(
        words=tuple(words.split()),
        ctype=_TYPES[ctype],
        value_pool=value_pool,
        description=desc,
        is_primary=pk,
    )


def _pk(words: str, desc: "str | None" = None) -> ColumnSpec:
    return _c(words, "int", "serial", desc, pk=True)


def _fk(words: str) -> ColumnSpec:
    return _c(words, "int", "serial")


def _t(
    words: str,
    columns: list[ColumnSpec],
    fks: "list[tuple[str, str, str]] | None" = None,
    core: bool = True,
    desc: "str | None" = None,
) -> TableSpec:
    return TableSpec(
        words=tuple(words.split()),
        columns=tuple(columns),
        fks=tuple(fks or []),
        core=core,
        description=desc,
    )


# ---------------------------------------------------------------------------
# 1. Racing (formula_1-like; the paper's Figure 1(a) example domain)
# ---------------------------------------------------------------------------

RACING = DomainSpec(
    name="racing",
    tables=(
        _t("circuits", [
            _pk("circuit id"),
            _c("circuit name", "text", "word", "name of the racing circuit"),
            _c("location", "text", "city", "city where the circuit is"),
            _c("country", "text", "country"),
            _c("altitude", "int", "int:0..2200", "altitude in meters"),
        ]),
        _t("drivers", [
            _pk("driver id"),
            _c("forename", "text", "person_first", "driver first name"),
            _c("surname", "text", "person_last", "driver family name"),
            _c("nationality", "text", "nationality"),
            _c("birth year", "int", "year:1970..2002"),
            _c("career points", "real", "real:0..420", "total career points"),
        ]),
        _t("races", [
            _pk("race id"),
            _fk("circuit id"),
            _c("race name", "text", "word", "official name of the race"),
            _c("season year", "int", "year:2000..2023"),
            _c("round", "int", "int:1..22", "round number within the season"),
            _c("race date", "date", "date"),
        ], fks=[("circuit id", "circuits", "circuit id")]),
        _t("lap times", [
            _pk("lap record id"),
            _fk("race id"),
            _fk("driver id"),
            _c("lap", "int", "int:1..70", "lap number"),
            _c("lap milliseconds", "int", "int:68000..115000",
               "lap time in milliseconds"),
            _c("position", "int", "int:1..20", "track position on that lap"),
        ], fks=[("race id", "races", "race id"),
                ("driver id", "drivers", "driver id")]),
        _t("results", [
            _pk("result id"),
            _fk("race id"),
            _fk("driver id"),
            _c("grid", "int", "int:1..20", "starting grid position"),
            _c("final position", "int", "int:1..20"),
            _c("points", "real", "real:0..26", "championship points scored"),
        ], fks=[("race id", "races", "race id"),
                ("driver id", "drivers", "driver id")]),
        _t("pit stops", [
            _pk("stop id"),
            _fk("race id"),
            _fk("driver id"),
            _c("stop number", "int", "int:1..4"),
            _c("stop milliseconds", "int", "int:19000..41000",
               "pit stop duration in milliseconds"),
        ], fks=[("race id", "races", "race id"),
                ("driver id", "drivers", "driver id")], core=False),
        _t("constructors", [
            _pk("constructor id"),
            _c("constructor name", "text", "company", "name of the constructor team"),
            _c("base country", "text", "country"),
            _c("founded year", "int", "year:1950..2015"),
        ], core=False),
        _t("qualifying", [
            _pk("qualifying id"),
            _fk("race id"),
            _fk("driver id"),
            _c("qualifying position", "int", "int:1..20"),
            _c("best milliseconds", "int", "int:66000..95000",
               "best qualifying lap in milliseconds"),
        ], fks=[("race id", "races", "race id"),
                ("driver id", "drivers", "driver id")], core=False),
    ),
    knowledge=(
        "first lap time refers to lap milliseconds where lap = 1",
        "podium finish refers to final position <= 3",
    ),
)

# ---------------------------------------------------------------------------
# 2. Schools (california_schools-like; Figure 1(b) example domain)
# ---------------------------------------------------------------------------

SCHOOLS = DomainSpec(
    name="schools",
    tables=(
        _t("schools", [
            _pk("school id"),
            _fk("district id"),
            _c("school name", "text", "word", "name of the school"),
            _c("education operations", "text", "choice:Traditional|Charter|Virtual",
               None),  # deliberately undocumented, as in Figure 1(b)
            _c("record type", "text", "choice:Elementary|Middle|High", None),
            _c("city", "text", "city"),
            _c("charter", "bool", "bool", "whether the school is a charter school"),
            _c("open date", "date", "date"),
        ], fks=[("district id", "districts", "district id")]),
        _t("districts", [
            _pk("district id"),
            _c("district name", "text", "word", "name of the school district"),
            _c("county", "text", "city"),
            _c("superintendent", "text", "person_last"),
        ]),
        _t("test scores", [
            _pk("score id"),
            _fk("school id"),
            _c("subject", "text", "choice:Math|Reading|Science"),
            _c("average score", "real", "real:300..900", "mean scale score"),
            _c("test year", "int", "year:2015..2023"),
            _c("takers count", "int", "int:10..900", "number of test takers"),
        ], fks=[("school id", "schools", "school id")]),
        _t("staff", [
            _pk("staff id"),
            _fk("school id"),
            _c("full name", "text", "person_last"),
            _c("role", "text", "choice:Teacher|Counselor|Administrator"),
            _c("hire year", "int", "year:1995..2023"),
            _c("salary", "real", "real:38000..140000", "annual salary in dollars"),
        ], fks=[("school id", "schools", "school id")]),
        _t("programs", [
            _pk("program id"),
            _fk("school id"),
            _c("program name", "text", "choice:STEM|Arts|Athletics|Language"),
            _c("funded amount", "real", "real:4000..250000",
               "annual funding in dollars"),
        ], fks=[("school id", "schools", "school id")], core=False),
        _t("enrollment", [
            _pk("enrollment id"),
            _fk("school id"),
            _c("grade level", "int", "int:1..12"),
            _c("enrolled count", "int", "int:8..240", "students enrolled"),
            _c("year", "int", "year:2015..2023"),
        ], fks=[("school id", "schools", "school id")], core=False),
    ),
    knowledge=(
        "education operations describes how the school is operated, "
        "for example Charter or Traditional",
        "record type is the type of education record kept for the school",
    ),
)

# ---------------------------------------------------------------------------
# 3. Clinic (thrombosis_prediction-like; the T-BIL example)
# ---------------------------------------------------------------------------

CLINIC = DomainSpec(
    name="clinic",
    tables=(
        _t("patients", [
            _pk("patient id"),
            _c("first name", "text", "person_first"),
            _c("last name", "text", "person_last"),
            _c("birth date", "date", "date"),
            _c("sex", "text", "choice:F|M"),
            _c("admission", "bool", "bool", "whether the patient was admitted"),
        ]),
        _t("examinations", [
            _pk("examination id"),
            _fk("patient id"),
            _c("examination date", "date", "date"),
            _c("diagnosis", "text", "choice:SLE|APS|PSS|RA|Behcet"),
            _c("symptoms", "text", "choice:thrombosis|fever|rash|fatigue"),
            _c("severity", "int", "int:1..5", "clinical severity grade"),
        ], fks=[("patient id", "patients", "patient id")]),
        _t("laboratory results", [
            _pk("lab id"),
            _fk("patient id"),
            _c("lab date", "date", "date"),
            _c("total bilirubin", "real", "real:0.1..3.5", None),
            _c("total protein", "real", "real:4.0..9.5", None),
            _c("creatinine", "real", "real:0.4..2.8",
               "serum creatinine in mg/dL"),
            _c("glucose", "real", "real:60..240", "blood glucose in mg/dL"),
        ], fks=[("patient id", "patients", "patient id")]),
        _t("prescriptions", [
            _pk("prescription id"),
            _fk("patient id"),
            _c("drug name", "text", "choice:aspirin|warfarin|heparin|prednisone"),
            _c("daily dose", "real", "real:0.5..40", "dose in mg per day"),
            _c("start date", "date", "date"),
        ], fks=[("patient id", "patients", "patient id")], core=False),
        _t("doctors", [
            _pk("doctor id"),
            _c("doctor name", "text", "person_last"),
            _c("specialty", "text", "choice:hematology|rheumatology|internal"),
            _c("practice years", "int", "int:1..40"),
        ], core=False),
    ),
    knowledge=(
        "total bilirubin refers to the T-BIL laboratory measurement in mg/dL",
        "abnormal protein level refers to total protein < 6.0 or > 8.5",
    ),
)

# ---------------------------------------------------------------------------
# 4. Retail
# ---------------------------------------------------------------------------

RETAIL = DomainSpec(
    name="retail",
    tables=(
        _t("customers", [
            _pk("customer id"),
            _c("customer name", "text", "person_last"),
            _c("city", "text", "city"),
            _c("segment", "text", "choice:Consumer|Corporate|Home Office"),
            _c("signup date", "date", "date"),
        ]),
        _t("products", [
            _pk("product id"),
            _c("product name", "text", "word"),
            _c("category", "text", "choice:Furniture|Technology|Office Supplies"),
            _c("unit price", "real", "real:2..900", "price per unit in dollars"),
            _c("stock quantity", "int", "int:0..500"),
        ]),
        _t("orders", [
            _pk("order id"),
            _fk("customer id"),
            _c("order date", "date", "date"),
            _c("ship mode", "text", "choice:Standard|Express|Same Day"),
            _c("discount", "real", "real:0..0.5", "fractional discount applied"),
        ], fks=[("customer id", "customers", "customer id")]),
        _t("order items", [
            _pk("item id"),
            _fk("order id"),
            _fk("product id"),
            _c("quantity", "int", "int:1..12"),
            _c("sales amount", "real", "real:5..2400", "line revenue in dollars"),
        ], fks=[("order id", "orders", "order id"),
                ("product id", "products", "product id")]),
        _t("suppliers", [
            _pk("supplier id"),
            _c("supplier name", "text", "company"),
            _c("country", "text", "country"),
            _c("rating", "int", "int:1..5", "supplier quality rating"),
        ], core=False),
        _t("stores", [
            _pk("store id"),
            _c("store name", "text", "word"),
            _c("city", "text", "city"),
            _c("square feet", "int", "int:900..40000"),
        ], core=False),
    ),
    knowledge=("sales amount already includes the discount",),
)

# ---------------------------------------------------------------------------
# 5. Airlines
# ---------------------------------------------------------------------------

AIRLINES = DomainSpec(
    name="airlines",
    tables=(
        _t("airlines", [
            _pk("airline id"),
            _c("airline name", "text", "company"),
            _c("country", "text", "country"),
            _c("fleet size", "int", "int:4..300", "number of aircraft operated"),
        ]),
        _t("airports", [
            _pk("airport id"),
            _c("airport name", "text", "word"),
            _c("city", "text", "city"),
            _c("country", "text", "country"),
            _c("elevation", "int", "int:0..2700", "elevation in feet"),
        ]),
        _t("flights", [
            _pk("flight id"),
            _fk("airline id"),
            _fk("origin airport id"),
            _fk("destination airport id"),
            _c("flight date", "date", "date"),
            _c("departure delay", "int", "int:-10..180",
               "departure delay in minutes; negative means early"),
            _c("distance", "int", "int:90..5400", "distance in miles"),
        ], fks=[("airline id", "airlines", "airline id"),
                ("origin airport id", "airports", "airport id"),
                ("destination airport id", "airports", "airport id")]),
        _t("passengers", [
            _pk("passenger id"),
            _c("passenger name", "text", "person_last"),
            _c("nationality", "text", "nationality"),
            _c("frequent flyer", "bool", "bool"),
        ], core=False),
        _t("bookings", [
            _pk("booking id"),
            _fk("flight id"),
            _fk("passenger id"),
            _c("seat class", "text", "choice:Economy|Business|First"),
            _c("fare", "real", "real:60..4200", "ticket price in dollars"),
        ], fks=[("flight id", "flights", "flight id"),
                ("passenger id", "passengers", "passenger id")], core=False),
    ),
    knowledge=("a delayed flight refers to departure delay > 15 minutes",),
)

# ---------------------------------------------------------------------------
# 6. Library
# ---------------------------------------------------------------------------

LIBRARY = DomainSpec(
    name="library",
    tables=(
        _t("authors", [
            _pk("author id"),
            _c("author name", "text", "person_last"),
            _c("birth year", "int", "year:1890..1995"),
            _c("nationality", "text", "nationality"),
        ]),
        _t("books", [
            _pk("book id"),
            _fk("author id"),
            _c("title", "text", "word"),
            _c("publish year", "int", "year:1950..2023"),
            _c("genre", "text", "choice:Fiction|History|Science|Poetry"),
            _c("page count", "int", "int:60..1200"),
        ], fks=[("author id", "authors", "author id")]),
        _t("members", [
            _pk("member id"),
            _c("member name", "text", "person_last"),
            _c("join date", "date", "date"),
            _c("membership level", "text", "choice:Basic|Plus|Student"),
        ]),
        _t("loans", [
            _pk("loan id"),
            _fk("book id"),
            _fk("member id"),
            _c("loan date", "date", "date"),
            _c("days out", "int", "int:1..60", "days the book has been out"),
            _c("returned", "bool", "bool"),
        ], fks=[("book id", "books", "book id"),
                ("member id", "members", "member id")]),
        _t("branches", [
            _pk("branch id"),
            _c("branch name", "text", "word"),
            _c("city", "text", "city"),
            _c("opened year", "int", "year:1930..2020"),
        ], core=False),
        _t("reservations", [
            _pk("reservation id"),
            _fk("book id"),
            _fk("member id"),
            _c("reserved date", "date", "date"),
            _c("fulfilled", "bool", "bool"),
        ], fks=[("book id", "books", "book id"),
                ("member id", "members", "member id")], core=False),
    ),
    knowledge=("an overdue loan refers to days out > 28 and returned = 0",),
)

# ---------------------------------------------------------------------------
# 7. Company HR
# ---------------------------------------------------------------------------

COMPANY = DomainSpec(
    name="company",
    tables=(
        _t("departments", [
            _pk("department id"),
            _c("department name", "text",
               "choice:Engineering|Sales|Finance|Marketing|Support"),
            _c("budget", "real", "real:200000..9000000", "annual budget in dollars"),
        ]),
        _t("employees", [
            _pk("employee id"),
            _fk("department id"),
            _c("employee name", "text", "person_last"),
            _c("hire date", "date", "date"),
            _c("annual salary", "real", "real:42000..260000"),
            _c("performance rating", "int", "int:1..5", None),
        ], fks=[("department id", "departments", "department id")]),
        _t("projects", [
            _pk("project id"),
            _fk("department id"),
            _c("project name", "text", "word"),
            _c("start date", "date", "date"),
            _c("budget amount", "real", "real:10000..2000000"),
            _c("status", "text", "choice:active|completed|cancelled"),
        ], fks=[("department id", "departments", "department id")]),
        _t("assignments", [
            _pk("assignment id"),
            _fk("employee id"),
            _fk("project id"),
            _c("allocated hours", "int", "int:10..800"),
            _c("role", "text", "choice:lead|contributor|reviewer"),
        ], fks=[("employee id", "employees", "employee id"),
                ("project id", "projects", "project id")]),
        _t("offices", [
            _pk("office id"),
            _c("office city", "text", "city"),
            _c("capacity", "int", "int:10..800"),
            _c("lease cost", "real", "real:4000..220000", "monthly lease in dollars"),
        ], core=False),
    ),
    knowledge=("a senior employee refers to performance rating >= 4",),
)

# ---------------------------------------------------------------------------
# 8. Movies
# ---------------------------------------------------------------------------

MOVIES = DomainSpec(
    name="movies",
    tables=(
        _t("directors", [
            _pk("director id"),
            _c("director name", "text", "person_last"),
            _c("birth year", "int", "year:1930..1992"),
            _c("nationality", "text", "nationality"),
        ]),
        _t("movies", [
            _pk("movie id"),
            _fk("director id"),
            _c("title", "text", "word"),
            _c("release year", "int", "year:1970..2023"),
            _c("runtime minutes", "int", "int:70..210"),
            _c("gross revenue", "real", "real:100000..900000000",
               "worldwide gross in dollars"),
        ], fks=[("director id", "directors", "director id")]),
        _t("actors", [
            _pk("actor id"),
            _c("actor name", "text", "person_last"),
            _c("birth year", "int", "year:1935..2003"),
        ]),
        _t("casts", [
            _pk("cast id"),
            _fk("movie id"),
            _fk("actor id"),
            _c("character name", "text", "person_first"),
            _c("billing order", "int", "int:1..12", "credit order in the cast list"),
        ], fks=[("movie id", "movies", "movie id"),
                ("actor id", "actors", "actor id")]),
        _t("ratings", [
            _pk("rating id"),
            _fk("movie id"),
            _c("source", "text", "choice:critics|audience"),
            _c("score", "real", "real:1..10", "rating score out of 10"),
            _c("votes", "int", "int:50..900000"),
        ], fks=[("movie id", "movies", "movie id")], core=False),
        _t("studios", [
            _pk("studio id"),
            _c("studio name", "text", "company"),
            _c("founded year", "int", "year:1910..2010"),
        ], core=False),
    ),
    knowledge=("a blockbuster refers to gross revenue > 100000000",),
)

# ---------------------------------------------------------------------------
# 9. Soccer
# ---------------------------------------------------------------------------

SOCCER = DomainSpec(
    name="soccer",
    tables=(
        _t("teams", [
            _pk("team id"),
            _c("team name", "text", "word"),
            _c("city", "text", "city"),
            _c("founded year", "int", "year:1880..2005"),
        ]),
        _t("players", [
            _pk("player id"),
            _fk("team id"),
            _c("player name", "text", "person_last"),
            _c("position", "text", "choice:GK|DF|MF|FW"),
            _c("birth year", "int", "year:1985..2006"),
            _c("market value", "real", "real:100000..120000000",
               "market value in euros"),
        ], fks=[("team id", "teams", "team id")]),
        _t("matches", [
            _pk("match id"),
            _fk("home team id"),
            _fk("away team id"),
            _c("match date", "date", "date"),
            _c("home score", "int", "int:0..6"),
            _c("away score", "int", "int:0..6"),
            _c("attendance", "int", "int:800..85000"),
        ], fks=[("home team id", "teams", "team id"),
                ("away team id", "teams", "team id")]),
        _t("goals", [
            _pk("goal id"),
            _fk("match id"),
            _fk("player id"),
            _c("minute", "int", "int:1..95", "minute the goal was scored"),
            _c("penalty", "bool", "bool"),
        ], fks=[("match id", "matches", "match id"),
                ("player id", "players", "player id")]),
        _t("stadiums", [
            _pk("stadium id"),
            _c("stadium name", "text", "word"),
            _c("capacity", "int", "int:5000..99000"),
            _c("city", "text", "city"),
        ], core=False),
        _t("transfers", [
            _pk("transfer id"),
            _fk("player id"),
            _c("fee", "real", "real:0..200000000", "transfer fee in euros"),
            _c("transfer date", "date", "date"),
        ], fks=[("player id", "players", "player id")], core=False),
    ),
    knowledge=("a hat-trick refers to a player scoring 3 goals in one match",),
)

# ---------------------------------------------------------------------------
# 10. Banking
# ---------------------------------------------------------------------------

BANKING = DomainSpec(
    name="banking",
    tables=(
        _t("clients", [
            _pk("client id"),
            _c("client name", "text", "person_last"),
            _c("birth date", "date", "date"),
            _c("district", "text", "city"),
        ]),
        _t("accounts", [
            _pk("account id"),
            _fk("client id"),
            _c("open date", "date", "date"),
            _c("account type", "text", "choice:checking|savings|credit"),
            _c("balance", "real", "real:-2000..400000", "current balance in dollars"),
        ], fks=[("client id", "clients", "client id")]),
        _t("transactions", [
            _pk("transaction id"),
            _fk("account id"),
            _c("transaction date", "date", "date"),
            _c("amount", "real", "real:1..9000", "transaction amount in dollars"),
            _c("operation", "text", "choice:deposit|withdrawal|transfer|payment"),
        ], fks=[("account id", "accounts", "account id")]),
        _t("loans", [
            _pk("loan id"),
            _fk("account id"),
            _c("loan amount", "real", "real:1000..500000"),
            _c("duration months", "int", "int:6..360"),
            _c("loan status", "text", "choice:active|paid|defaulted"),
        ], fks=[("account id", "accounts", "account id")]),
        _t("cards", [
            _pk("card id"),
            _fk("account id"),
            _c("card type", "text", "choice:debit|classic|gold"),
            _c("issued date", "date", "date"),
        ], fks=[("account id", "accounts", "account id")], core=False),
        _t("branches", [
            _pk("branch id"),
            _c("branch city", "text", "city"),
            _c("established year", "int", "year:1950..2015"),
        ], core=False),
    ),
    knowledge=("an overdrawn account refers to balance < 0",),
)

# ---------------------------------------------------------------------------
# 11. Music
# ---------------------------------------------------------------------------

MUSIC = DomainSpec(
    name="music",
    tables=(
        _t("artists", [
            _pk("artist id"),
            _c("artist name", "text", "person_last"),
            _c("country", "text", "country"),
            _c("formed year", "int", "year:1960..2018"),
        ]),
        _t("albums", [
            _pk("album id"),
            _fk("artist id"),
            _c("album title", "text", "word"),
            _c("release year", "int", "year:1965..2023"),
            _c("label", "text", "company"),
        ], fks=[("artist id", "artists", "artist id")]),
        _t("tracks", [
            _pk("track id"),
            _fk("album id"),
            _c("track title", "text", "word"),
            _c("duration seconds", "int", "int:90..720"),
            _c("play count", "int", "int:1000..90000000", "streaming play count"),
        ], fks=[("album id", "albums", "album id")]),
        _t("playlists", [
            _pk("playlist id"),
            _c("playlist name", "text", "word"),
            _c("follower count", "int", "int:10..4000000"),
        ], core=False),
        _t("playlist tracks", [
            _pk("entry id"),
            _fk("playlist id"),
            _fk("track id"),
            _c("added date", "date", "date"),
        ], fks=[("playlist id", "playlists", "playlist id"),
                ("track id", "tracks", "track id")], core=False),
        _t("concerts", [
            _pk("concert id"),
            _fk("artist id"),
            _c("venue city", "text", "city"),
            _c("concert date", "date", "date"),
            _c("tickets sold", "int", "int:200..90000"),
        ], fks=[("artist id", "artists", "artist id")], core=False),
    ),
    knowledge=("a hit track refers to play count > 10000000",),
)

# ---------------------------------------------------------------------------
# 12. University
# ---------------------------------------------------------------------------

UNIVERSITY = DomainSpec(
    name="university",
    tables=(
        _t("departments", [
            _pk("department id"),
            _c("department name", "text",
               "choice:Computer Science|Mathematics|Physics|History|Biology"),
            _c("building", "text", "word"),
            _c("research budget", "real", "real:100000..12000000"),
        ]),
        _t("instructors", [
            _pk("instructor id"),
            _fk("department id"),
            _c("instructor name", "text", "person_last"),
            _c("rank", "text", "choice:assistant|associate|full"),
            _c("salary", "real", "real:60000..240000"),
        ], fks=[("department id", "departments", "department id")]),
        _t("students", [
            _pk("student id"),
            _fk("department id"),
            _c("student name", "text", "person_last"),
            _c("entry year", "int", "year:2016..2023"),
            _c("gpa", "real", "real:1.8..4.0", "grade point average"),
        ], fks=[("department id", "departments", "department id")]),
        _t("courses", [
            _pk("course id"),
            _fk("department id"),
            _c("course title", "text", "word"),
            _c("credits", "int", "int:1..6"),
            _c("capacity", "int", "int:10..300"),
        ], fks=[("department id", "departments", "department id")]),
        _t("enrollments", [
            _pk("enrollment id"),
            _fk("student id"),
            _fk("course id"),
            _c("semester", "text", "choice:Fall|Winter|Summer"),
            _c("grade", "real", "real:0..4.0", "final grade on a 4-point scale"),
        ], fks=[("student id", "students", "student id"),
                ("course id", "courses", "course id")]),
        _t("scholarships", [
            _pk("scholarship id"),
            _fk("student id"),
            _c("award amount", "real", "real:500..40000"),
            _c("award year", "int", "year:2016..2023"),
        ], fks=[("student id", "students", "student id")], core=False),
    ),
    knowledge=("dean's list refers to gpa >= 3.7",),
)

ALL_DOMAINS: tuple[DomainSpec, ...] = (
    RACING,
    SCHOOLS,
    CLINIC,
    RETAIL,
    AIRLINES,
    LIBRARY,
    COMPANY,
    MOVIES,
    SOCCER,
    BANKING,
    MUSIC,
    UNIVERSITY,
)


def domain_by_name(name: str) -> DomainSpec:
    for d in ALL_DOMAINS:
        if d.name == name:
            return d
    raise KeyError(f"unknown domain {name!r}")
