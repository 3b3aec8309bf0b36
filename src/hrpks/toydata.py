"""Built-in reference vectors for the toy17 worked example: the first seven
multiples of both generators over Q and mod p, the financial
department's hyperplane, and the published key material. Used by `hrpks
reproduce toy17` to diff a fresh computation against these pinned values.

Note on SK1: the published tuple (3257, 2774256590) does NOT satisfy the
financial-department hyperplane (it evaluates to 524452959, not 0), yet it
is exactly the tuple that produces the published point PK1. The value
3083917365 satisfies the hyperplane but yields a different point. The
published example is internally inconsistent there; both computed facts
are pinned below so the coherent reading is on record.
"""

TOY_CURVE_ID = "toy17"
TOY_P = 3123456773
TOY_Q = 3123456773

# (x, y) as exact fraction strings, n = 1..7
P1_MULTIPLES_Q = (
    ("-2", "3"),
    ("8", "-23"),
    ("19/25", "522/125"),
    ("752/529", "-54239/12167"),
    ("174598/32761", "76943337/5929741"),
    ("-4471631/3027600", "-19554357097/5268024000"),
    ("12870778678/76545001", "1460185427995887/669692213749"),
)

P1_MULTIPLES_P = (
    (3123456771, 3),
    (8, 3123456750),
    (2748641961, 2148938264),
    (743961350, 253378136),
    (1176218259, 691053659),
    (2180670293, 2607412353),
    (128580328, 2472269909),
)

P2_MULTIPLES_Q = (
    ("2", "5"),
    ("-64/25", "59/125"),
    ("5023/3249", "-842480/185193"),
    ("38194304/87025", "-236046706033/25672375"),
    ("279124379042/111229587121", "212464088270704525/37096290830311831"),
    ("-22792283822695031/9224204064998400",
     "1225613646951190271274203/885917648237503131648000"),
    ("17206060394388022298882/15290847667056681428641",
     "-8116122042886721305956245646487115/1890807614539313964919688531912561"),
)

P2_MULTIPLES_P = (
    (2, 5),
    (2248888874, 2923555540),
    (2602399966, 2884651714),
    (1188080486, 863393529),
    (842290081, 2500317348),
    (2145964735, 2073955284),
    (759645483, 758431348),
)

# hyperplane coefficient order is (a0, a1, a2)
FINANCIAL_PLANE = (123, 48, 79)

SK2 = (6789, 118608156)
PK2 = (2132129612, 2902520269)

SK1_PUBLISHED = (3257, 2774256590)        # off the financial plane
SK1_X2_ON_PLANE = 3083917365              # on the plane, different point
PK1_PUBLISHED = (1385928692, 2187054458)  # matches SK1_PUBLISHED
PK1_FROM_ON_PLANE = (2298108553, 327407787)

# financial-plane evaluation of the published SK1 tuple (nonzero)
SK1_PUBLISHED_PLANE_RESIDUE = 524452959
