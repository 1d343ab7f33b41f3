"""Command-line front end.

Every subcommand takes --out and --format csv|json and writes one artifact
to stdout or the file given; the subcommands that draw random numbers
(`dope stats` and the scenario commands) also take --seed. Library errors
exit with status 2 and a one-line message; pipeline failures name the stage
that died.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .configure import infer_adjacency, simulate_scan
from .constants import DIAMOND_LATTICE_CONSTANT, RYDBERG_EV
from .donor import model_from_ionization, with_radius_scale, zeeman_check
from .errors import DonorgateError, InvalidSpecError, NoCleanGateError
from .feasibility import patch_statistics, resolve_cluster, run_feasibility
from .integrals import exchange_curve, transfer_splitting_curve
from .lattice import (LatticeSpec, neighbor_statistics, place_dopants,
                      shell_sizes, sphere_count_report)
from .scenario import _grid, get_preset, list_presets, load_scenario
from .spins import sfg_gate


def _common(parser):
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the artifact here instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default depends on the command)")


def _emit(args, payload, header, rows, default_format="json"):
    fmt = args.format or default_format
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _kv_rows(pairs):
    return ["key", "value"], [[k, v] for k, v in pairs]


def _scenario_from_args(args):
    if getattr(args, "scenario", None):
        return load_scenario(args.scenario)
    name = getattr(args, "preset", None)
    if not name:
        raise InvalidSpecError("give --scenario FILE or --preset NAME")
    kind, obj = get_preset(name)
    if kind != "scenario":
        raise InvalidSpecError(
            f"preset {name!r} is a {kind} preset, not a scenario")
    return obj


def _curve_models(args):
    if args.preset:
        kind, obj = get_preset(args.preset)
        if kind != "curve":
            raise InvalidSpecError(f"preset {args.preset!r} is not a curve preset")
        return obj.control, obj.qubit, obj.r_grid, obj.base_transition_mev
    control = model_from_ionization("P", args.binding_ev, args.epsilon,
                                    role="control")
    qubit = with_radius_scale(
        model_from_ionization("N", args.binding_ev, args.epsilon, role="qubit"),
        args.qubit_scale)
    bounds = (args.r_min, args.r_max, args.r_step)
    if not all(map(math.isfinite, bounds)):
        raise InvalidSpecError("r-min, r-max and r-step must be finite")
    if args.r_max <= args.r_min or args.r_step <= 0:
        raise InvalidSpecError("need r-min < r-max and a positive r-step")
    return control, qubit, _grid(args.r_min, args.r_max, args.r_step), args.base_mev


# -- command bodies ----------------------------------------------------------

def _cmd_lattice_count(args):
    report = sphere_count_report(LatticeSpec(args.radius, args.lattice_constant))
    _emit(args, report, *_kv_rows(sorted(report.items())))


def _cmd_lattice_shells(args):
    table = shell_sizes(LatticeSpec(args.radius, args.lattice_constant),
                        args.shells)
    rows = [[k + 1, f"{d:.6f}", n] for k, (d, n) in enumerate(table.shells)]
    payload = {"shells": [{"shell": k + 1, "distance_angstrom": d, "sites": n}
                          for k, (d, n) in enumerate(table.shells)]}
    _emit(args, payload, ["shell", "distance_angstrom", "sites"], rows,
          default_format="csv")


def _cmd_dope_stats(args):
    region = place_dopants(LatticeSpec(args.radius, args.lattice_constant),
                           args.concentration, {"dopant": 1.0}, args.seed)
    stats = neighbor_statistics(region, n_shells=args.shells)
    ks = sorted(set(stats.empirical) | set(stats.analytic))
    rows = [[k, f"{stats.empirical.get(k, 0.0):.6g}",
             f"{stats.analytic.get(k, 0.0):.6g}"] for k in ks]
    payload = {
        "concentration": args.concentration,
        "seed": args.seed,
        "shell_sites": stats.shell_sites,
        "dopants_counted": stats.dopants_counted,
        "empirical": {str(k): v for k, v in stats.empirical.items()},
        "analytic": {str(k): v for k, v in stats.analytic.items()},
    }
    _emit(args, payload, ["k_neighbors", "empirical", "analytic"], rows,
          default_format="csv")


def _cmd_emt(args):
    model = model_from_ionization(args.species, args.binding_ev, args.epsilon,
                                  central_cell_split_ev=args.central_cell_ev)
    pairs = [
        ("species", model.species_name),
        ("binding_energy_ev", model.binding_energy_ev),
        ("coulombic_binding_ev", model.coulombic_binding_ev),
        ("dielectric_constant", model.dielectric_constant),
        ("effective_mass_ratio",
         model.dielectric_constant ** 2 * model.coulombic_binding_ev / RYDBERG_EV),
        ("effective_bohr_radius_a", model.effective_bohr_radius_a),
    ]
    if args.field_t is not None:
        check = zeeman_check(args.g_factor, args.field_t, args.temperature_k)
        pairs += [("field_t", check.field_t),
                  ("temperature_k", check.temperature_k),
                  ("zeeman_to_thermal", check.ratio),
                  ("polarization", check.polarization)]
    _emit(args, dict(pairs), *_kv_rows(pairs))


def _cmd_exchange_curve(args):
    control, qubit, grid, _ = _curve_models(args)
    ground = exchange_curve(control, qubit, False, grid)
    excited = exchange_curve(control, qubit, True, grid)
    rows = [[f"{r:.6g}", f"{g.exchange_splitting_mev:.9g}",
             f"{x.exchange_splitting_mev:.9g}"]
            for r, g, x in zip(grid, ground, excited)]
    payload = {
        "control": {"binding_ev": control.binding_energy_ev,
                    "bohr_radius_a": control.effective_bohr_radius_a},
        "qubit": {"radius_scale": qubit.radius_scale_factor,
                  "bohr_radius_a": qubit.ground_orbital_radius_a()},
        "rows": [{"R_angstrom": float(r),
                  "J_ground_meV": float(g.exchange_splitting_mev),
                  "J_excited_meV": float(x.exchange_splitting_mev)}
                 for r, g, x in zip(grid, ground, excited)],
    }
    _emit(args, payload, ["R_angstrom", "J_ground_meV", "J_excited_meV"], rows,
          default_format="csv")


def _cmd_splitting_curve(args):
    control, _, grid, base = _curve_models(args)
    curve = transfer_splitting_curve(control, grid, base)
    rows = [[f"{t.separation_a:.6g}", f"{t.transfer_mev:.9g}",
             f"{t.splitting_mev:.9g}", f"{t.branch_lower_mev:.9g}",
             f"{t.branch_upper_mev:.9g}"] for t in curve]
    payload = {
        "base_transition_mev": base,
        "rows": [{"R_angstrom": t.separation_a, "t_meV": t.transfer_mev,
                  "splitting_meV": t.splitting_mev,
                  "branch_lower_meV": t.branch_lower_mev,
                  "branch_upper_meV": t.branch_upper_mev} for t in curve],
    }
    _emit(args, payload,
          ["R_angstrom", "t_meV", "splitting_meV",
           "branch_lower_meV", "branch_upper_meV"],
          rows, default_format="csv")


def _cmd_gate_run(args):
    tau_range = None if args.tau_max is None else (0.0, args.tau_max)
    try:
        report = sfg_gate(args.j1, args.j2, tau_range,
                          residual_threshold=args.threshold)
        clean = True
    except NoCleanGateError as err:
        report, clean = err.best_candidate, False
    pairs = [
        ("j1_mev", args.j1), ("j2_mev", args.j2),
        ("clean", clean),
        ("tau_ps", report.duration_ps),
        ("residual_bits", report.control_residual_entanglement),
        ("entangling_power", report.entangling_power),
    ]
    payload = dict(pairs)
    payload["qubit_unitary"] = [[[float(z.real), float(z.imag)] for z in row]
                                for row in np.asarray(report.qubit_unitary)]
    _emit(args, payload, *_kv_rows(pairs))


def _cmd_configure_scan(args):
    scenario = _scenario_from_args(args)
    realized, lines, excited = resolve_cluster(scenario, args.seed)
    scan = simulate_scan(realized, lines, excited)
    header, rows = scan.to_rows()
    spectra = [[float(v) for v in spectrum] for spectrum in scan.spectra]
    payload = {
        "optical_axis_mev": [float(v) for v in scan.optical_axis_mev],
        "epr_axis_mev": [float(v) for v in scan.epr_axis_mev],
        "response": [spectra[k] for k in scan.row_spectrum],
    }
    _emit(args, payload, header, rows, default_format="csv")


def _cmd_configure_infer(args):
    scenario = _scenario_from_args(args)
    realized, lines, excited = resolve_cluster(scenario, args.seed)
    hypothesis = infer_adjacency(simulate_scan(realized, lines, excited),
                                 realized.detection_threshold_mev)
    rows = []
    for entry in hypothesis.entries:
        for q, j in entry.couplings:
            rows.append([f"{entry.optical_energy_mev:.6f}",
                         str(entry.ambiguous).lower(), q, f"{j:.6f}"])
        if not entry.couplings:
            rows.append([f"{entry.optical_energy_mev:.6f}",
                         str(entry.ambiguous).lower(), "", ""])
    payload = {
        "detection_threshold_mev": hypothesis.detection_threshold_mev,
        "entries": [{"optical_energy_mev": e.optical_energy_mev,
                     "ambiguous": e.ambiguous,
                     "couplings": {q: j for q, j in e.couplings}}
                    for e in hypothesis.entries],
    }
    _emit(args, payload, ["optical_mev", "ambiguous", "qubit", "J_mev"], rows)


def _cmd_feasibility_run(args):
    scenario = _scenario_from_args(args)
    report = run_feasibility(scenario, seed=args.seed)
    _emit(args, report.to_dict(), *_kv_rows(report.summary_rows()))


def _cmd_feasibility_patches(args):
    scenario = _scenario_from_args(args)
    stats = patch_statistics(scenario, args.patches, seed=args.seed)
    _emit(args, stats.to_dict(), *_kv_rows(stats.summary_rows()))


def _cmd_presets_list(args):
    rows = [[name, kind, summary] for name, kind, summary in list_presets()]
    payload = {"presets": [{"name": n, "kind": k, "summary": s}
                           for n, k, s in list_presets()]}
    _emit(args, payload, ["name", "kind", "summary"], rows, default_format="csv")


# -- parser ------------------------------------------------------------------

def _add_curve_options(parser, binding_default):
    parser.add_argument("--preset", default=None,
                        help="use a built-in curve preset instead of parameters")
    parser.add_argument("--binding-ev", type=float, default=binding_default)
    parser.add_argument("--epsilon", type=float, default=5.7)
    parser.add_argument("--qubit-scale", type=float, default=0.5)
    parser.add_argument("--r-min", type=float, default=4.0)
    parser.add_argument("--r-max", type=float, default=16.0)
    parser.add_argument("--r-step", type=float, default=0.5)
    parser.add_argument("--base-mev", type=float, default=600.0,
                        help="bare transition energy for branch output")


def _add_scenario_source(parser):
    parser.add_argument("--scenario", default=None, metavar="FILE",
                        help="scenario JSON file")
    parser.add_argument("--preset", default=None,
                        help="built-in scenario preset (e.g. table1)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="donorgate",
        description="feasibility tooling for optically gated donor spins in diamond")
    top.add_argument("--version", action="version", version=__version__)
    cmds = top.add_subparsers(dest="command", required=True)

    lattice = cmds.add_parser("lattice", help="site enumeration")
    lsub = lattice.add_subparsers(dest="subcommand", required=True)
    p = lsub.add_parser("count", help="sites inside a bounding sphere")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--lattice-constant", type=float,
                   default=DIAMOND_LATTICE_CONSTANT)
    _common(p)
    p.set_defaults(func=_cmd_lattice_count)
    p = lsub.add_parser("shells", help="neighbor shell distances and counts")
    p.add_argument("--shells", type=int, default=5)
    p.add_argument("--radius", type=float, default=10.0)
    p.add_argument("--lattice-constant", type=float,
                   default=DIAMOND_LATTICE_CONSTANT)
    _common(p)
    p.set_defaults(func=_cmd_lattice_shells)

    dope = cmds.add_parser("dope", help="random doping statistics")
    dsub = dope.add_subparsers(dest="subcommand", required=True)
    p = dsub.add_parser("stats", help="neighbors-per-dopant distribution")
    p.add_argument("--radius", type=float, default=60.0)
    p.add_argument("--lattice-constant", type=float,
                   default=DIAMOND_LATTICE_CONSTANT)
    p.add_argument("--concentration", type=float, required=True)
    p.add_argument("--shells", type=int, default=5)
    p.add_argument("--seed", type=int, default=0, help="placement seed")
    _common(p)
    p.set_defaults(func=_cmd_dope_stats)

    p = cmds.add_parser("emt", help="effective-mass numbers for one species")
    p.add_argument("--species", default="P")
    p.add_argument("--binding-ev", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=5.7)
    p.add_argument("--central-cell-ev", type=float, default=0.0)
    p.add_argument("--field-t", type=float, default=None,
                   help="add the spin initialization check at this field")
    p.add_argument("--temperature-k", type=float, default=0.1)
    p.add_argument("--g-factor", type=float, default=2.0)
    _common(p)
    p.set_defaults(func=_cmd_emt)

    exchange = cmds.add_parser("exchange", help="pair exchange")
    esub = exchange.add_subparsers(dest="subcommand", required=True)
    p = esub.add_parser("curve", help="J(R), control ground and excited")
    _add_curve_options(p, 0.6)
    _common(p)
    p.set_defaults(func=_cmd_exchange_curve)

    splitting = cmds.add_parser("splitting", help="excitation sharing")
    ssub = splitting.add_subparsers(dest="subcommand", required=True)
    p = ssub.add_parser("curve", help="transfer splitting of two controls")
    _add_curve_options(p, 0.6)
    _common(p)
    p.set_defaults(func=_cmd_splitting_curve)

    gate = cmds.add_parser("gate", help="two-qubit gate search")
    gsub = gate.add_subparsers(dest="subcommand", required=True)
    p = gsub.add_parser("run", help="search the gate interval for one trio")
    p.add_argument("--j1", type=float, required=True, help="coupling to qubit 1 (meV)")
    p.add_argument("--j2", type=float, required=True, help="coupling to qubit 2 (meV)")
    p.add_argument("--tau-max", type=float, default=None, help="search up to this many ps")
    p.add_argument("--threshold", type=float, default=1e-6,
                   help="clean-gate residual threshold in bits")
    _common(p)
    p.set_defaults(func=_cmd_gate_run)

    configure = cmds.add_parser("configure", help="scan and blind inference")
    csub = configure.add_subparsers(dest="subcommand", required=True)
    p = csub.add_parser("scan", help="simulate the EPR-vs-optical map")
    _add_scenario_source(p)
    _common(p)
    p.set_defaults(func=_cmd_configure_scan)
    p = csub.add_parser("infer", help="recover adjacency from the map")
    _add_scenario_source(p)
    _common(p)
    p.set_defaults(func=_cmd_configure_infer)

    feas = cmds.add_parser("feasibility", help="full pipeline")
    fsub = feas.add_subparsers(dest="subcommand", required=True)
    p = fsub.add_parser("run", help="one scenario end to end")
    _add_scenario_source(p)
    _common(p)
    p.set_defaults(func=_cmd_feasibility_run)
    p = fsub.add_parser("patches", help="outcome distribution over doping realizations")
    _add_scenario_source(p)
    p.add_argument("--patches", type=int, default=100)
    _common(p)
    p.set_defaults(func=_cmd_feasibility_patches)

    presets = cmds.add_parser("presets", help="built-in inputs")
    psub = presets.add_subparsers(dest="subcommand", required=True)
    p = psub.add_parser("list", help="name, kind and summary of each preset")
    _common(p)
    p.set_defaults(func=_cmd_presets_list)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except DonorgateError as err:
        print(f"donorgate: error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
