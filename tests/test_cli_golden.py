"""Golden CLI texts: every command's --help and every BadConfig message,
byte for byte. argparse wraps help to the terminal width, so the tests fix
it at 80 columns."""

import json

import pytest

from threatwatch.cli import BadConfig, main, pipeline_config_from_dict

# --help output per subcommand ("" is the top-level parser).
HELP = {
    "": """\
usage: threatwatch [-h] {validate,split,score,watch,eval,simulate} ...

Streaming knife-threat assessment pipeline

positional arguments:
  {validate,split,score,watch,eval,simulate}
    validate            check a manifest and print stats
    split               deterministic train/val/test assignment
    score               per-frame fused assessments
    watch               assessments + temporal alert events
    eval                score predictions against a manifest
    simulate            render a scenario script to frames

options:
  -h, --help            show this help message and exit
""",
    "validate": """\
usage: threatwatch validate [-h] --manifest MANIFEST

options:
  -h, --help           show this help message and exit
  --manifest MANIFEST  manifest JSONL path ('-' = stdin)
""",
    "split": """\
usage: threatwatch split [-h] --manifest MANIFEST [--seed SEED]
                         [--ratios RATIOS] [--out OUT]

options:
  -h, --help           show this help message and exit
  --manifest MANIFEST  manifest JSONL path ('-' = stdin)
  --seed SEED          shuffle seed (default 0)
  --ratios RATIOS      train,val,test fractions (default 0.70,0.15,0.15)
  --out OUT            output JSONL path ('-' = stdout)
""",
    "score": """\
usage: threatwatch score [-h] --input INPUT [--config CONFIG] [--out OUT]
                         [--strict]

options:
  -h, --help       show this help message and exit
  --input INPUT    frame source: a synthetic:/jsonl:/extern: URI; anything
                   else is a JSONL path; a path of '-' (also in synthetic:-)
                   is stdin
  --config CONFIG  pipeline config JSON (default $THREATWATCH_CONFIG)
  --out OUT        assessments JSONL ('-' = stdout)
  --strict         abort on the first malformed input line instead of skipping
                   it with a warning
""",
    "watch": """\
usage: threatwatch watch [-h] --input INPUT [--config CONFIG]
                         [--alerts ALERTS] [--webhook WEBHOOK]

options:
  -h, --help         show this help message and exit
  --input INPUT      frame source: a synthetic:/jsonl:/extern: URI; anything
                     else is a JSONL path; a path of '-' (also in synthetic:-)
                     is stdin
  --config CONFIG    pipeline config JSON (default $THREATWATCH_CONFIG)
  --alerts ALERTS    alert events JSONL ('-' = stdout)
  --webhook WEBHOOK  POST each alert event to this URL (overrides config)
""",
    "eval": """\
usage: threatwatch eval [-h] --pred PRED --labels LABELS [--report REPORT]
                        [--format {json,table}]

options:
  -h, --help            show this help message and exit
  --pred PRED           predictions JSONL ('-' = stdin)
  --labels LABELS       manifest JSONL ('-' = stdin)
  --report REPORT       report output ('-' = stdout)
  --format {json,table}
                        report format (default table)
""",
    "simulate": """\
usage: threatwatch simulate [-h] --scenario SCENARIO [--seed SEED] [--out OUT]

options:
  -h, --help           show this help message and exit
  --scenario SCENARIO  scenario JSON path ('-' = stdin)
  --seed SEED          override the script's seed
  --out OUT            frames JSONL ('-' = stdout)
""",
}

# (name, config JSON, the BadConfig message it must raise). Within a
# section the first bad key in the object's own key order is the one
# reported.
BAD_CONFIGS = [
    ('unknown_top_level_key', '{"fusion": {}, "zeta": 1, "alpha": 2}',
     'unknown config key(s): alpha, zeta'),
    ('unknown_section_key', '{"fusion": {"tau_detection": 0.9, "a": 1}}',
     'unknown fusion key(s): a, tau_detection'),
    ('unknown_temporal_key', '{"temporal": {"n_rise": 1}}',
     'unknown temporal key(s): n_rise'),
    ('fusion_not_an_object', '{"fusion": [0.9]}',
     'config.fusion must be an object'),
    ('temporal_not_an_object', '{"temporal": 3}',
     'config.temporal must be an object'),
    ('config_not_an_object', '[1]',
     'config must be a JSON object'),
    ('non_number', '{"fusion": {"tau_det": "0.9"}}',
     'fusion.tau_det must be a number'),
    ('bool', '{"fusion": {"margin": true}}',
     'fusion.margin must be a number'),
    ('bool_temporal', '{"temporal": {"n_clear": false}}',
     'temporal.n_clear must be a number'),
    ('null', '{"fusion": {"tau_pose": null}}',
     'fusion.tau_pose must be a number'),
    ('float_for_n_raise', '{"temporal": {"n_raise": 3.0}}',
     'temporal.n_raise must be an integer'),
    ('out_of_range_fusion', '{"fusion": {"delta_wrist": 1.5}}',
     'delta_wrist must be within [0, 1], got 1.5'),
    ('out_of_range_temporal', '{"temporal": {"n_raise": 0}}',
     'n_raise must be >= 1, got 0'),
    ('int_fusion_accepted_then_range', '{"fusion": {"tau_det": 2}}',
     'tau_det must be within [0, 1], got 2'),
    ('first_bad_key_in_json_order', '{"fusion": {"margin": "x", "tau_det": "y"}}',
     'fusion.margin must be a number'),
    ('first_bad_key_in_json_order_temporal', '{"temporal": {"n_clear": 1.5, "n_raise": "3"}}',
     'temporal.n_clear must be an integer'),
    ('type_before_range', '{"fusion": {"tau_det": 5.0, "margin": "x"}}',
     'fusion.margin must be a number'),
    ('fusion_before_temporal', '{"temporal": {"n_raise": "x"}, "fusion": {"margin": "y"}}',
     'fusion.margin must be a number'),
    ('bad_webhook_url', '{"webhook_url": 5}',
     'config.webhook_url must be a string or null'),
    ('bad_log_level', '{"log_level": "loud"}',
     "config.log_level must be one of ['debug', 'error', 'info', 'warning']"),
    ('log_level_not_a_string', '{"log_level": 3}',
     "config.log_level must be one of ['debug', 'error', 'info', 'warning']"),
    ('unknown_key_before_bad_section', '{"fusion": 3, "nope": 1}',
     'unknown config key(s): nope'),
]


@pytest.mark.parametrize("command", sorted(HELP), ids=lambda command: command or "threatwatch")
def test_help_text(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(command.split() + ["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == HELP[command]


@pytest.mark.parametrize("text,message", [c[1:] for c in BAD_CONFIGS],
                         ids=[c[0] for c in BAD_CONFIGS])
def test_bad_config_message(text, message, tmp_path, capsys):
    with pytest.raises(BadConfig) as exc_info:
        pipeline_config_from_dict(json.loads(text))
    assert str(exc_info.value) == message
    config = tmp_path / "config.json"
    config.write_text(text)
    for command in ("score", "watch"):
        assert main([command, "--input", f"jsonl:{tmp_path / 'absent.jsonl'}",
                     "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
