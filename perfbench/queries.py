"""Seeded query generators of the benchmark's workloads."""

import csv
import itertools

FLIGHT_EXPOSURES = ("Airline", "Origin_city", "Origin_state",
                    "Destination_city")
FLIGHT_OUTCOMES = ("Departure_delay", "Security_delay")
# The dashboard's flights charts: (exposure, WHERE template, outcome).
DASHBOARD_FLIGHTS = (("Origin_state", "C1", "Departure_delay"),
                     ("Airline", "C1", "Departure_delay"),
                     ("Destination_city", "C1", "Departure_delay"),
                     ("Origin_city", "C1", "Departure_delay"),
                     ("Airline", "C1", "Security_delay"),
                     ("Origin_city", "C1", "Security_delay"),
                     ("Destination_city", "N1", "Departure_delay"),
                     ("Origin_city", "N1", "Security_delay"))
COVID_EXPOSURES = ("Country", "WHO_Region")
COVID_OUTCOMES = ("Confirmed_per_100k", "Deaths_per_100_cases",
                  "Recovered_per_100_cases", "New_cases_per_100k")


def big_states(csv_path, sample_rows=20000, min_share=0.04):
    """Origin states holding at least `min_share` of the first rows (rows
    are drawn i.i.d., so the head of the file is a fair sample)."""
    counts = {}
    with open(csv_path, newline="") as f:
        for row in itertools.islice(csv.DictReader(f), sample_rows):
            counts[row["Origin_state"]] = counts.get(row["Origin_state"], 0) + 1
    total = sum(counts.values())
    return sorted(s for s, c in counts.items() if c >= min_share * total)


# WHERE templates by context class: "wide" keeps 60-100% of the rows,
# "narrow" 4-17%, "conjunction" about 0.3-2.5%. A template that names
# Origin_state is never paired with Origin_state as the exposure.
TEMPLATES = {
    "W1": lambda r, st: "",
    "W2": lambda r, st: "Cancelled = false",
    "W3": lambda r, st: "Month >= %d" % r.randint(2, 4),
    "W4": lambda r, st: "Day_of_week <= %d" % r.randint(5, 6),
    "N1": lambda r, st: "Month = %d" % r.randint(1, 12),
    "N2": lambda r, st: "Day_of_week = %d" % r.randint(1, 7),
    "N3": lambda r, st: "Month IN (%d, %d)" % tuple(
        sorted(r.sample(range(1, 13), 2))),
    "N4": lambda r, st: "Origin_state = '%s'" % r.choice(st),
    "C1": lambda r, st: "Month = %d AND Day_of_week = %d" % (
        r.randint(1, 12), r.randint(1, 7)),
    "C2": lambda r, st: "Month IN (%d, %d) AND Day_of_week = %d" % (
        *sorted(r.sample(range(1, 13), 2)), r.randint(1, 7)),
    "C3": lambda r, st: "Origin_state = '%s' AND Month = %d" % (
        r.choice(st), r.randint(1, 12)),
    "C4": lambda r, st: "Origin_state = '%s' AND Day_of_week = %d" % (
        r.choice(st), r.randint(1, 7)),
}
STATE_TEMPLATES = ("N4", "C3", "C4")


def context_class(template):
    return {"W": "wide", "N": "narrow", "C": "conjunction"}[template[0]]


def flights_sql(exposure, outcome, where):
    return "SELECT %s, avg(%s) FROM flights%s GROUP BY %s" % (
        exposure, outcome, " WHERE " + where if where else "", exposure)


def flights_query(rng, states, exposure, template, outcome, seen):
    """A query of the given shape not in `seen`; only the template's
    values are redrawn until it is new."""
    for _ in range(100):
        sql = flights_sql(exposure, outcome, TEMPLATES[template](rng, states))
        if sql not in seen:
            seen.add(sql)
            return sql
    raise ValueError("no new %s query for %s" % (template, exposure))


def flights_stream(rng, states, block):
    """Endless stream of distinct (sql, context class) flights queries.

    Stratified so that any two seeds send the same mix of query shapes:
    `block` is a sequence of groups of WHERE templates. Each pass over it
    keeps the groups in order and shuffles the templates inside each group,
    so every prefix of the stream holds nearly the same mix of classes. The
    exposures and outcomes are spread evenly over a pass; the template
    values (months, days, states) are drawn.
    """
    seen = set()
    while True:
        slots = []
        for group in block:
            group = list(group)
            rng.shuffle(group)
            slots += group
        exposures = [e for _ in range(-(-len(slots) // 4))
                     for e in FLIGHT_EXPOSURES]
        outcomes = [o for _ in range(-(-len(slots) // 2))
                    for o in FLIGHT_OUTCOMES]
        rng.shuffle(exposures)
        rng.shuffle(outcomes)
        # Slots whose template names Origin_state choose first, so they
        # never find only Origin_state left.
        chosen = {}
        for i in sorted(range(len(slots)),
                        key=lambda i: slots[i] not in STATE_TEMPLATES):
            chosen[i] = next(e for e in exposures
                             if e != "Origin_state" or
                             slots[i] not in STATE_TEMPLATES)
            exposures.remove(chosen[i])
        for i, template in enumerate(slots):
            # A shape whose values are used up falls back to another
            # exposure, outcome and then template of the same class.
            same_class = [template] + [
                t for t in TEMPLATES if t != template and t[0] == template[0]]
            shapes = [(chosen[i], outcomes.pop(), template)] + [
                (e, o, t) for t in same_class for e in FLIGHT_EXPOSURES
                for o in FLIGHT_OUTCOMES
                if e != "Origin_state" or t not in STATE_TEMPLATES]
            for exposure, outcome, t in shapes:
                try:
                    sql = flights_query(rng, states, exposure, t, outcome,
                                        seen)
                    break
                except ValueError:
                    continue
            else:
                raise ValueError("every %s query was sent" % template)
            yield sql, context_class(template)


def dashboard_pool(rng, states):
    """The dashboard's fixed pool of twelve distinct requests: four covid
    charts (each exposure with two seeded outcomes) and the eight flights
    charts of DASHBOARD_FLIGHTS, whose months and days are seeded. Half of
    the requests are flights conjunctions, so the median lands inside that
    one cluster of costs (a few ms), not in the sub-ms noise of the covid
    charts. Three requests, a quarter, also ask for unexplained subgroups:
    one covid and both narrow flights charts."""
    pool = [{"dataset": "covid",
             "sql": "SELECT %s, avg(%s) FROM covid GROUP BY %s" % (e, o, e),
             "refine": "WHO_Region" if e == "Country" else "Country"}
            for e in COVID_EXPOSURES for o in rng.sample(COVID_OUTCOMES, 2)]
    seen = set()
    for exposure, template, outcome in DASHBOARD_FLIGHTS:
        pool.append({"dataset": "flights",
                     "sql": flights_query(rng, states, exposure, template,
                                          outcome, seen),
                     "refine": "Origin_state"})
    for i in (rng.randrange(2 * len(COVID_EXPOSURES)), -2, -1):
        pool[i]["subgroups"] = [pool[i]["refine"]]
    for req in pool:
        del req["refine"]
    return [dict(verb="explain", **req) for req in pool]
