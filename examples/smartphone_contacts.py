"""A smartphone contacts manager — the paper's motivating workload.

Android apps keep their state in SQLite; every UI action (add a contact,
star a favourite, log a call) is one small transaction.  This example runs
the same app logic twice on a simulated Nexus 5:

* stock SQLite WAL on eMMC flash with EXT4 (the status quo), and
* NVWAL with user-level heap + lazy sync + differential logging
  (the paper's proposal) on NVRAM with a 2 usec write latency,

then reports the per-action latency each storage stack delivers.

Run:  python examples/smartphone_contacts.py
"""

from repro import Database, System, nexus5
from repro.wal import FileWalBackend, NvwalBackend, NvwalScheme


def run_app(db: Database) -> dict[str, float]:
    """Drive the contacts app; return average latency per action (usec)."""
    clock = db.system.clock
    timings: dict[str, list[float]] = {}

    def action(name: str, fn) -> None:
        start = clock.now_ns
        fn()
        timings.setdefault(name, []).append(clock.now_ns - start)

    db.execute(
        "CREATE TABLE contacts (id INTEGER PRIMARY KEY, name TEXT,"
        " phone TEXT, starred INTEGER)"
    )
    db.execute(
        "CREATE TABLE call_log (id INTEGER PRIMARY KEY, contact_id INTEGER,"
        " duration INTEGER)"
    )

    for i in range(120):
        action(
            "add contact",
            lambda i=i: db.execute(
                "INSERT INTO contacts VALUES (?, ?, ?, 0)",
                (i, f"Person {i}", f"+1-555-{i:04d}"),
            ),
        )
    for i in range(0, 120, 7):
        action(
            "star favourite",
            lambda i=i: db.execute(
                "UPDATE contacts SET starred = 1 WHERE id = ?", (i,)
            ),
        )
    for i in range(200):
        action(
            "log call",
            lambda i=i: db.execute(
                "INSERT INTO call_log VALUES (?, ?, ?)",
                (i, (i * 13) % 120, 30 + i % 300),
            ),
        )
    for i in range(0, 120, 11):
        action(
            "delete contact",
            lambda i=i: db.execute("DELETE FROM contacts WHERE id = ?", (i,)),
        )
    action(
        "open favourites screen",
        lambda: db.query(
            "SELECT name, phone FROM contacts WHERE starred = 1 ORDER BY name"
        ),
    )
    return {
        name: sum(samples) / len(samples) / 1e3
        for name, samples in timings.items()
    }


def main() -> None:
    results = {}

    flash = System(nexus5(), seed=7)
    db = Database(
        system=flash,
        wal=FileWalBackend(flash, optimized=False),
        name="contacts.db",
    )
    results["stock WAL on eMMC flash"] = run_app(db)

    nvram = System(nexus5(write_latency_ns=2000), seed=7)
    db = Database(
        system=nvram,
        wal=NvwalBackend(nvram, NvwalScheme.uh_ls_diff()),
        name="contacts.db",
    )
    results["NVWAL (UH+LS+Diff) on NVRAM"] = run_app(db)

    actions = list(next(iter(results.values())))
    width = max(len(a) for a in actions)
    header = f"{'action'.ljust(width)}  " + "  ".join(
        f"{name:>28}" for name in results
    )
    print(header)
    print("-" * len(header))
    for action in actions:
        cells = "  ".join(
            f"{results[name][action]:>24.0f} usec" for name in results
        )
        print(f"{action.ljust(width)}  {cells}")
    slow = results["stock WAL on eMMC flash"]["add contact"]
    fast = results["NVWAL (UH+LS+Diff) on NVRAM"]["add contact"]
    print(f"\nadding a contact is {slow / fast:.1f}x faster with NVWAL")


if __name__ == "__main__":
    main()
