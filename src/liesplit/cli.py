"""The ``liesplit`` command line.

    liesplit epsilon --catalog n2-p4-s-m9-opt
    liesplit epsilon scheme.txt --order 4 --json
    python -m liesplit epsilon --catalog n2-p4-s-m9-opt

``epsilon`` prints a scheme's error measure, the generator ordering that
attains it, the degree-(p+1) 1-norm of every ordering and the order
residuals of degrees 1..p, as ``schemes.epsilon`` returns them.  The
scheme is a catalog entry or a ``scheme_to_text`` document; exact
(rational) parameters give exact values.  Nothing here is imported by
``import liesplit``.
"""

from __future__ import annotations

import json
from fractions import Fraction

import click

from . import schemes
from .catalog import catalog


@click.group()
def main() -> None:
    """Splitting schemes and their Hall-basis error measure."""


@main.command()
@click.argument("scheme_file", required=False, type=click.File("r"))
@click.option("--catalog", "name", metavar="NAME", help="A catalog entry instead of a file.")
@click.option("--order", "-p", type=click.IntRange(min=1),
              help="The order p; a catalog entry's own by default.")
@click.option("--json", "as_json", is_flag=True, help="One JSON object instead of text.")
def epsilon(scheme_file, name, order, as_json) -> None:
    """Error measure of SCHEME_FILE (scheme_to_text format) or a catalog entry."""
    if (scheme_file is None) == (name is None):
        raise click.UsageError("give exactly one of a scheme file and --catalog NAME")
    if name is not None:
        entry = catalog().get(name)
        if entry is None:
            raise click.BadParameter(f"no catalog entry {name!r}", param_hint="--catalog")
        label, scheme, params, order = name, entry.scheme, entry.params, order or entry.order
    else:
        if order is None:
            raise click.UsageError("a scheme file needs --order")
        try:
            scheme, params, _ = schemes.scheme_from_text(scheme_file.read())
        except ValueError as err:
            raise click.BadParameter(str(err), param_hint="SCHEME_FILE") from None
        label = scheme.label()
    try:
        report = schemes.epsilon(scheme, params, order)
    except (ValueError, RuntimeError) as err:
        raise click.ClickException(str(err)) from None
    sums = {schemes.ordering_str(o): s for o, s in report.sums_per_ordering.items()}
    if as_json:
        click.echo(json.dumps({
            "scheme": label, "p": order, "m": scheme.m,
            "exact": isinstance(report.epsilon, Fraction),
            "epsilon": _number(report.epsilon),
            "ordering_best": schemes.ordering_str(report.ordering_best),
            "sums_per_ordering": {o: _number(s) for o, s in sums.items()},
            "order_residuals": {str(d): _number(r) for d, r in report.order_residuals.items()},
        }))
        return
    click.echo(f"{label}: p = {order}, m = {scheme.m}")
    click.echo(f"epsilon        {_text(report.epsilon)}")
    click.echo(f"best ordering  {schemes.ordering_str(report.ordering_best)}")
    click.echo(f"degree-{order + 1} 1-norm per ordering:")
    for o, s in sums.items():
        click.echo(f"  {o:<8} {_text(s)}")
    click.echo("order residual per degree:")
    for d, r in report.order_residuals.items():
        click.echo(f"  {d:<8} {_text(r)}")


def _number(value):
    """A JSON number for a float, a "p/q" string for an exact value."""
    return value if isinstance(value, float) else str(Fraction(value))


def _text(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return f"{Fraction(value)} ({float(value):.12g})"


if __name__ == "__main__":
    main()
