"""risim's four coherent sums (far_cut, near_cut, single_pass with its dB
ledger, nearfield_synthesis), stated term by term from the model's formulas
in `math` and `cmath` only: no numpy and no risim code. Inputs are read by
attribute, bits index as bits[m][n], and element (m, n), 0-based, sits at
(m p, n p, 0).

A sum returns (value, bound). Each term's phase is k0 times a path of at
most L metres, rounded at that size, so a kernel that states the same sum
in another order agrees within C EPS (1 + k0 L) sum|terms|. fsum leaves the
reference only its terms' rounding; C = 16 covers a few ulps per term and
per complex product on both sides, at first order, with room.
"""

import cmath
import math

EPS = 2.0**-52
C = 16
# received powers, dBm, whose mW value 10**(dBm/10) is a positive finite float
MW_FLOAT_RANGE_DBM = (10.0 * math.log10(math.ulp(0.0)), 10.0 * math.log10(math.nextafter(math.inf, 0.0)))
# a row whose circular mean is known no better than this, in radians, nearly
# cancels: its phasor sum is within rounding of zero, and its bits are noise
MAX_MEAN_ERROR = 1e-6


def _elements(geom):
    p = geom.periodicity_m
    return [(m * p, n * p) for m in range(geom.m_count) for n in range(geom.n_count)]


def _sum(terms, phase_size, scale=1.0):
    """scale times the sum of the terms, correctly rounded, and its bound; phase_size is k0 L."""
    value = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    return scale * value, scale * C * EPS * (1.0 + phase_size) * math.fsum(abs(t) for t in terms)


def _coefficients(geom, bits, cell):
    """The reflection coefficient of the cell state each element's bit selects."""
    states = (
        cmath.rect(cell.magnitude_state0, math.radians(cell.phase_state0_deg)),
        cmath.rect(cell.magnitude_state1, math.radians(cell.phase_state1_deg)),
    )
    return [states[int(bits[m][n])] for m in range(geom.m_count) for n in range(geom.n_count)]


def _in_plane(geom, phi_deg):
    """Each element's coordinate along the azimuth phi, and the largest |coordinate|."""
    c, s = math.cos(math.radians(phi_deg)), math.sin(math.radians(phi_deg))
    w = [x * c + y * s for x, y in _elements(geom)]
    return w, max(abs(v) for v in w)


def _norm(x, y, z):
    """The correctly rounded root of a sum of squares, each square a product."""
    return math.sqrt(x * x + y * y + z * z)


def hop(geom, node):
    """Per element: distance r from the node, the normal cosine z / r, and the
    cosine off the node's boresight, which points at the array center,
    clipped to [0, 1]."""
    p = geom.periodicity_m
    bx, by, bz = (geom.m_count - 1) * p / 2 - node.x, (geom.n_count - 1) * p / 2 - node.y, -node.z
    hops = []
    for x, y in _elements(geom):
        dx, dy, dz = x - node.x, y - node.y, -node.z
        r = _norm(dx, dy, dz)
        off = (dx * bx + dy * by + dz * bz) / (r * _norm(bx, by, bz))
        hops.append((r, node.z / r, min(max(off, 0.0), 1.0)))
    return hops


def _cut(geom, weights, paths, phi_plane_deg, thetas_deg, wavelength, q_e=0.0):
    """Per theta: max(cos(theta), 0)**q_e times the sum over elements of
    weight * exp(j k0 (sin(theta) w - path)), w the element's coordinate
    along the cut plane."""
    k0 = 2 * math.pi / wavelength
    w, w_max = _in_plane(geom, phi_plane_deg)
    size = k0 * (w_max + max(abs(v) for v in paths))
    cuts = []
    for theta in thetas_deg:
        s, envelope = math.sin(math.radians(theta)), max(math.cos(math.radians(theta)), 0.0) ** q_e
        terms = [a * cmath.rect(1.0, k0 * (s * v - d)) for a, v, d in zip(weights, w, paths)]
        cuts.append(_sum(terms, size, envelope))
    return cuts


def far_cut(geom, bits, cell, incidence, phi_plane_deg, thetas_deg, wavelength):
    """The far array factor under plane-wave incidence: each element weighs its
    reflection coefficient, and its path is its projection onto the incidence
    direction."""
    sin_in = math.sin(math.radians(incidence.theta_deg))
    paths = [sin_in * v for v in _in_plane(geom, incidence.phi_deg)[0]]
    return _cut(geom, _coefficients(geom, bits, cell), paths, phi_plane_deg, thetas_deg, wavelength)


def near_cut(geom, bits, cell, feed, q_e, phi_plane_deg, thetas_deg, wavelength):
    """The cut of the aperture lit by a close-in feed: each element weighs
    sqrt(off**q_f * cos**(2 q_e)) / r times its reflection coefficient, r, cos
    and off the feed hop's distance and cosines, and its path is r; the
    outgoing element factor max(cos(theta), 0)**q_e scales each sample."""
    hops = hop(geom, feed.position)
    weights = [
        a * math.sqrt(off**feed.q_f * cos ** (2 * q_e)) / r
        for a, (r, cos, off) in zip(_coefficients(geom, bits, cell), hops)
    ]
    return _cut(geom, weights, [r for r, _, _ in hops], phi_plane_deg, thetas_deg, wavelength, q_e)


def two_hop_terms(scenario, rx):
    """Per element, for a receiver at rx: the amplitude sqrt(taper) / (r_feed
    r_rx), taper = off_feed**q_f cos_feed**(2 q_e) cos_rx**(2 q_e) off_rx**q_r,
    and the path r_feed + r_rx."""
    q, feed, geom = 2 * scenario.cell.q_e, scenario.feed, scenario.geom
    terms = []
    for (r_t, cos_t, off_t), (r_r, cos_r, off_r) in zip(hop(geom, feed.position), hop(geom, rx)):
        taper = off_t**feed.q_f * cos_t**q * cos_r**q * off_r**scenario.q_r
        terms.append((math.sqrt(taper) / (r_t * r_r), r_t + r_r))
    return terms


def single_pass(scenario, rx, bits):
    """|sum over elements of amplitude * coefficient * exp(-j k0 path)| for a
    receiver at rx under the cell state each bit selects, and its bound."""
    k0 = 2 * math.pi / scenario.wavelength
    terms = two_hop_terms(scenario, rx)
    coeff = _coefficients(scenario.geom, bits, scenario.cell)
    value, bound = _sum(
        [a * c * cmath.rect(1.0, -k0 * path) for c, (a, path) in zip(coeff, terms)],
        k0 * max(path for _, path in terms),
    )
    return abs(value), bound


def left_to_right_sum(values):
    """A dB ledger's total in its one order: each value added left to right,
    as builtin sum did before Python 3.12 began compensating float sums."""
    total = 0.0
    for value in values:
        total += value
    return total


def ledger(head_db, hw_db, acc, lpe_db):
    """One received-power ledger in table order: the head terms, the
    accumulation in dB, the phase-error loss and the hardware term, added left
    to right. Returns the accumulation's dB and the total; a total whose mW
    value is not a positive finite float is a ValueError."""
    acc_db = 20.0 * math.log10(acc) if acc > 0 else -math.inf
    total = left_to_right_sum((*head_db, acc_db, lpe_db, hw_db))
    if not MW_FLOAT_RANGE_DBM[0] <= total <= MW_FLOAT_RANGE_DBM[1]:
        raise ValueError(f"received power leaves the float range ({total!r} dBm)")
    return acc_db, total


def nearfield_synthesis(geom, feed, thetas_deg, phi_deg, wavelength):
    """Per theta, the 1-bit mask collimating the feed's spherical wavefront
    toward (theta, phi): each element's phase k0 (r - sin(theta) w), less the
    circular mean of all of them, wrapped to [0, 360) degrees; its bit is 1
    exactly in [90, 270). A row is (phases_deg, margin_deg): rounding may move
    a phase by margin_deg, inf where the row's phasor sum nearly cancels."""
    k0 = 2 * math.pi / wavelength
    hops = hop(geom, feed)
    w, w_max = _in_plane(geom, phi_deg)
    size = k0 * (w_max + max(r for r, _, _ in hops))
    rows = []
    for theta in thetas_deg:
        s = math.sin(math.radians(theta))
        psi = [k0 * (r - s * v) for (r, _, _), v in zip(hops, w)]
        total, bound = _sum([cmath.rect(1.0, x) for x in psi], size)
        mean_error = bound / abs(total) if total else math.inf
        margin = math.degrees(C * EPS * (1.0 + size) + mean_error) if mean_error <= MAX_MEAN_ERROR else math.inf
        phases = [math.degrees(x - math.atan2(total.imag, total.real)) % 360.0 for x in psi]
        rows.append(([0.0 if ph >= 360.0 else ph for ph in phases], margin))
    return rows


def synthesis_mismatches(rows, phases_deg, bits):
    """A kernel's centered phases and bits, each indexed [row][element], against
    the reference rows: the (row, element) pairs whose phase lies outside the
    margin or whose bit differs, the count of elements skipped as lying within
    the margin of a quantizer edge (90 or 270), and the count of rows skipped
    as nearly cancelling."""
    wrong, edges, cancelling = [], 0, 0
    for k, (ref_phases, margin) in enumerate(rows):
        if margin == math.inf:
            cancelling += 1
            continue
        for i, (ref, ph, bit) in enumerate(zip(ref_phases, phases_deg[k], bits[k], strict=True)):
            if min(abs(ref - 90.0), abs(ref - 270.0)) <= margin:
                edges += 1
                continue
            apart = abs(ref - ph) % 360.0
            if bool(bit) != (90.0 <= ref < 270.0) or min(apart, 360.0 - apart) > margin:
                wrong.append((k, i))
    return wrong, edges, cancelling
