"""SARIF 2.1.0 emitter for analyzer findings (CI artifact format)."""

from __future__ import annotations

import json

from model import Finding, RULES

# The frontend that built the source models (backend_lexical).
BACKEND = "lexical"


def to_sarif(findings: list[Finding]) -> str:
    rules = [
        {
            "id": rule.rule_id,
            "shortDescription": {"text": rule.summary},
            "helpUri": "https://example.invalid/braidio/DESIGN.md#13",
        }
        for rule in RULES
    ]
    results = [
        {
            "ruleId": finding.rule_id,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {"startLine": finding.line},
                    }
                }
            ],
        }
        for finding in findings
    ]
    doc = {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "braidio-analyzer",
                        "informationUri":
                            "https://example.invalid/braidio",
                        "version": "1.0.0",
                        "properties": {"backend": BACKEND},
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def to_json(findings: list[Finding], files_scanned: int) -> str:
    doc = {
        "schema": "braidio-analyzer/v1",
        "backend": BACKEND,
        "files_scanned": files_scanned,
        "finding_count": len(findings),
        "findings": [
            {
                "rule": finding.rule_id,
                "path": finding.path,
                "line": finding.line,
                "message": finding.message,
            }
            for finding in findings
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
