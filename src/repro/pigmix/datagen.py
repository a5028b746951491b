"""PigMix-style data generation.

Tables (flattened relative to PigMix's nested bags/maps — page_info and
page_links become opaque strings, which preserves the byte-volume role they
play in the paper's I/O-bound experiments):

* ``page_views(user, action, timespent, query_term, ip_addr, timestamp,
  estimated_revenue, page_info, page_links)`` — the large fact table;
* ``users(name, phone, address, city, state, zip)`` — covers almost every
  page_views user (L5's anti-join output is tiny, as in Table 1);
* ``power_users`` — a small subset of users (selective joins).

The user popularity distribution is Zipf-like, as in PigMix's generator.
"""

from repro.common import DeterministicRng
from repro.data import DataType, encode_rows, Field, Schema

PAGE_VIEWS_SCHEMA = Schema(
    [
        Field("user", DataType.CHARARRAY),
        Field("action", DataType.INT),
        Field("timespent", DataType.INT),
        Field("query_term", DataType.CHARARRAY),
        Field("ip_addr", DataType.CHARARRAY),
        Field("timestamp", DataType.INT),
        Field("estimated_revenue", DataType.DOUBLE),
        Field("page_info", DataType.CHARARRAY),
        Field("page_links", DataType.CHARARRAY),
    ]
)

USERS_SCHEMA = Schema(
    [
        Field("name", DataType.CHARARRAY),
        Field("phone", DataType.CHARARRAY),
        Field("address", DataType.CHARARRAY),
        Field("city", DataType.CHARARRAY),
        Field("state", DataType.CHARARRAY),
        Field("zip", DataType.CHARARRAY),
    ]
)

POWER_USERS_SCHEMA = USERS_SCHEMA


class PigMixConfig:
    """Sizing knobs for one benchmark instance.

    The paper's instances differ 10x in page_views volume (15 GB vs
    150 GB); mirror that with ``num_page_views`` ratios. ``missing_users``
    users appearing in page_views have no users row (L5's anti-join
    output).
    """

    def __init__(self, num_page_views=12_000, num_users=600, num_power_users=60,
                 missing_users=2, num_query_terms=None, seed=42):
        self.num_page_views = num_page_views
        self.num_users = num_users
        self.num_power_users = min(num_power_users, num_users)
        self.missing_users = missing_users
        # Enough distinct query terms that (user, query_term) groups are
        # nearly unique -> L6's Group output is large, as the paper notes.
        self.num_query_terms = num_query_terms or max(10, num_page_views // 2)
        self.seed = seed

    def scaled(self, factor):
        """A config ``factor``x larger (the 150 GB instance is 10x 15 GB)."""
        return PigMixConfig(
            num_page_views=self.num_page_views * factor,
            num_users=self.num_users * factor,
            num_power_users=self.num_power_users * factor,
            missing_users=self.missing_users,
            seed=self.seed,
        )


class PigMixData:
    """Generates and installs one PigMix instance into a DFS."""

    def __init__(self, config=None):
        self.config = config or PigMixConfig()

    def user_pool(self):
        """All user names appearing in page_views (Zipf-weighted draws)."""
        return [f"user{i:06d}" for i in range(self.config.num_users)]

    def _zipf_weights(self, count):
        return [1.0 / (rank + 1) for rank in range(count)]

    def page_views_rows(self):
        cfg = self.config
        rng = DeterministicRng(cfg.seed).substream("page_views")
        pool = self.user_pool()
        weights = self._zipf_weights(len(pool))
        users = rng.choices(pool, weights=weights, k=cfg.num_page_views)
        rows = []
        for index, user in enumerate(users):
            action = rng.randint(1, 2)
            timespent = rng.randint(1, 600)
            query_term = f"q{rng.randint(0, cfg.num_query_terms - 1):06d}"
            ip_addr = (
                f"{rng.randint(1, 255)}.{rng.randint(0, 255)}."
                f"{rng.randint(0, 255)}.{rng.randint(0, 255)}"
            )
            timestamp = rng.randint(0, 86_399)
            revenue = round(rng.uniform(0.01, 99.99), 2)
            # page_info/page_links stand in for PigMix's nested map/bag
            # fields; their bulk (most of the ~700B row) is what makes
            # projections shed ~97% of the bytes, as in the paper.
            page_info = "i" + rng.rand_string(179)
            page_links = "l" + rng.rand_string(419)
            rows.append(
                (user, action, timespent, query_term, ip_addr, timestamp,
                 revenue, page_info, page_links)
            )
        return rows

    def users_rows(self):
        """One row per pool user except the ``missing_users`` heaviest-
        numbered ones (so L5 finds a few unmatched page_views users)."""
        cfg = self.config
        rng = DeterministicRng(cfg.seed).substream("users")
        rows = []
        for index, name in enumerate(self.user_pool()):
            if index >= cfg.num_users - cfg.missing_users:
                continue
            rows.append(
                (
                    name,
                    f"555-{rng.randint(0, 9999):04d}",
                    f"{rng.randint(1, 999)} {rng.rand_string(8)} St",
                    rng.rand_string(10),
                    rng.rand_string(2).upper(),
                    f"{rng.randint(10000, 99999)}",
                )
            )
        return rows

    def power_users_rows(self):
        """A small, deterministic subset of users (every k-th user)."""
        cfg = self.config
        users = self.users_rows()
        step = max(1, len(users) // max(1, cfg.num_power_users))
        return users[::step][: cfg.num_power_users]

    def install(self, dfs, prefix="/data"):
        """Write all three tables; returns a dict of path -> FileStatus."""
        tables = {
            f"{prefix}/page_views": (self.page_views_rows(), PAGE_VIEWS_SCHEMA),
            f"{prefix}/users": (self.users_rows(), USERS_SCHEMA),
            f"{prefix}/power_users": (self.power_users_rows(), POWER_USERS_SCHEMA),
        }
        statuses = {}
        for path, (rows, schema) in tables.items():
            statuses[path] = dfs.write_lines(
                path, encode_rows(rows, schema), overwrite=True)
        return statuses
