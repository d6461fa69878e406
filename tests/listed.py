"""The text and the parsed form of a tree the serialize writers return, made
by json.dumps and json.loads alone, as a reference that does not go through
dump_json_file: a dense matrix in such a tree is an array, listed here."""

import json


def compact_text(tree) -> str:
    """json.dumps(tree, separators=(",", ":")) of tree with every array listed."""
    return json.dumps(tree, separators=(",", ":"), default=lambda a: a.tolist())


def parsed(tree):
    """The JSON value a reader gets from the file of tree."""
    return json.loads(compact_text(tree))
