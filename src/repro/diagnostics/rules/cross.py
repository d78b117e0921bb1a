"""X-series rules: consistency checks no single-source linter can make.

These correlate WHOIS, BGP, RPKI and the abuse lists — the checks the
paper's §5 pipeline implicitly relies on when it joins the datasets.
"""

from __future__ import annotations

from typing import Iterator

from ..context import DiagnosticContext
from ..model import Dataset, Diagnostic, Rule, Severity, register_rule

__all__ = [
    "UnregisteredAnnouncementRule",
    "RoaOrgMismatchRule",
    "DropListedRootAsnRule",
    "HijackerOriginRule",
]


class _CrossRule(Rule):
    """Base for rules correlating several datasets."""

    dataset = Dataset.CROSS


@register_rule
class UnregisteredAnnouncementRule(_CrossRule):
    """A prefix is originated in BGP but no WHOIS record covers it.
    The allocation tree cannot attribute such space to any holder, so
    it falls out of the census entirely — on real data this flags dump/
    RIB date skew or a WHOIS parser dropping records.

    Remediation: confirm the WHOIS dumps and RIB snapshot share a date;
    if they do, the space is likely unallocated (possible hijack).
    """

    code = "X501"
    title = "announced prefix absent from WHOIS"
    default_severity = Severity.WARNING

    def check(self, context: DiagnosticContext) -> Iterator[Diagnostic]:
        if context.routing_table is None or context.whois is None:
            return
        registered = context.registered_trie()
        for prefix, origins in context.routing_table.items():
            if registered.least_specific_match(prefix) is not None:
                continue
            names = ", ".join(f"AS{asn}" for asn in sorted(origins))
            yield self.finding(
                subject=str(prefix),
                message=(
                    f"originated by {names} but no WHOIS registration "
                    "covers it"
                ),
                location="rib+whois",
            )


@register_rule
class RoaOrgMismatchRule(_CrossRule):
    """A ROA authorizes an ASN that WHOIS assigns to a *different*
    organisation than the one registered for the covered address space.
    This is exactly the off-path origin the leasing inference hunts for
    — surfaced as information so a diagnostics run doubles as a quick
    census of delegation-vs-registration divergence.

    Remediation: none; a cluster of mismatches under one holder org is
    a leasing (or ROA misconfiguration) signal worth manual review.
    """

    code = "X502"
    title = "ROA origin org differs from address registrant org"
    default_severity = Severity.INFO

    def check(self, context: DiagnosticContext) -> Iterator[Diagnostic]:
        if context.roas is None or context.whois is None:
            return
        registered = context.registered_trie()
        for roa in context.roas:
            if roa.is_as0:
                continue
            hit = registered.longest_match(roa.prefix)
            if hit is None:
                continue
            holder_org = hit[1].org_id
            if not holder_org:
                continue
            origin_org = context.asn_org(roa.asn)
            if origin_org is not None and origin_org != holder_org:
                yield self.finding(
                    subject=str(roa.prefix),
                    message=(
                        f"ROA authorizes AS{roa.asn} ({origin_org}) but "
                        f"the space is registered to {holder_org}"
                    ),
                    location="vrps+whois",
                )


@register_rule
class DropListedRootAsnRule(_CrossRule):
    """A Spamhaus-DROP-listed ASN is registered to an organisation that
    holds a portable root allocation.  Blocklisted networks should not
    *hold* address space directly; when they do, every leaf under that
    root inherits a tainted address provider (§6.4's correlation
    becomes an attribution error instead of a finding).

    Remediation: verify the DROP entry and the WHOIS org linkage by
    hand; consider excluding the org's space from holder statistics.
    """

    code = "X503"
    title = "DROP-listed ASN registered to a root-holding org"
    default_severity = Severity.WARNING

    def check(self, context: DiagnosticContext) -> Iterator[Diagnostic]:
        if context.drop is None or context.whois is None:
            return
        root_orgs = {}
        for rir, tree in context.trees().items():
            for prefix, record in tree.portable_roots():
                if record.org_id:
                    root_orgs.setdefault(record.org_id, (rir, prefix))
        for asn in sorted(context.drop.asns()):
            registration = context.asn_registration(asn)
            if registration is None or not registration[1]:
                continue
            rir, org_id = registration
            if org_id in root_orgs:
                _root_rir, root_prefix = root_orgs[org_id]
                yield self.finding(
                    subject=f"AS{asn}",
                    message=(
                        f"DROP-listed but registered to {org_id}, holder "
                        f"of root {root_prefix}"
                    ),
                    location="drop+whois",
                )


@register_rule
class HijackerOriginRule(_CrossRule):
    """A serial-hijacker ASN (Testart et al.) originates routes in the
    RIB.  Expected at a low background rate — the paper's §6.3 measures
    precisely this overlap — but each origin is worth surfacing next to
    the structural findings it can explain (MOAS spikes, unregistered
    announcements).

    Remediation: none; cross-check against B203/X501 findings on the
    same prefixes before trusting their WHOIS attribution.
    """

    code = "X504"
    title = "serial-hijacker ASN originating routes"
    default_severity = Severity.INFO

    def check(self, context: DiagnosticContext) -> Iterator[Diagnostic]:
        if context.hijackers is None or context.routing_table is None:
            return
        origins = context.routing_table.origins()
        for asn in sorted(context.hijackers):
            if asn in origins:
                count = len(context.routing_table.prefixes_of_origin(asn))
                yield self.finding(
                    subject=f"AS{asn}",
                    message=f"flagged serial hijacker originates "
                    f"{count} prefix(es)",
                    location="hijackers+rib",
                )
