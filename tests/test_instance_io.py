import pytest

from ihs import (
    Digraph,
    Graph,
    Instance,
    InstanceFormatError,
    ModelParams,
    gen_gnp,
    gen_planted,
    read_instance,
    write_instance,
)


def test_round_trip_undirected(tmp_path):
    g = Graph(4, [(2, 3), (0, 1), (1, 2)])
    inst = Instance(graph=g, params=ModelParams(n=4, p=0.25, seed=9))
    path = tmp_path / "g.txt"
    write_instance(path, inst)
    text = path.read_text()
    assert text.splitlines()[0] == "ihs-graph 1 undirected 4 3"
    back = read_instance(path)
    assert back.graph == g
    assert back.params == inst.params
    write_instance(tmp_path / "back.txt", back)
    assert (tmp_path / "back.txt").read_text() == text


def test_round_trip_planted(tmp_path):
    model = gen_planted(ModelParams(n=40, p=0.3, delta=0.2, k=3, seed=5))
    inst = Instance(graph=model.digraph, planted=model.planted, params=model.params)
    path = tmp_path / "d.txt"
    write_instance(path, inst)
    back = read_instance(path)
    assert back.graph == model.digraph
    assert back.planted == model.planted
    assert back.params == model.params
    write_instance(tmp_path / "back.txt", back)
    assert (tmp_path / "back.txt").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("kind", ["gnp", "planted", "empty"])
def test_file_bytes_equal_text(tmp_path, kind):
    # the header and one "u v" line per pair, then one line per trailer; the
    # gnp instance has ~79k edges, more than one slice of pair lines
    if kind == "gnp":
        params = ModelParams(n=1500, p=0.07, seed=3)
        inst = Instance(graph=gen_gnp(params), params=params)
    elif kind == "planted":
        model = gen_planted(ModelParams(n=60, p=0.3, delta=0.1, k=3, seed=2))
        inst = Instance(graph=model.digraph, planted=model.planted, params=model.params)
    else:
        inst = Instance(graph=Graph(0))
    path = tmp_path / "inst.txt"
    write_instance(path, inst)
    g = inst.graph
    directed = isinstance(g, Digraph)
    pairs = g.arc_list if directed else g.edge_list
    header = f"ihs-graph 1 {'directed' if directed else 'undirected'} {g.n} {len(pairs)}\n"
    lines = path.read_bytes().decode().splitlines(keepends=True)
    assert "".join(lines[:len(pairs) + 1]) == header + "".join(f"{u} {v}\n" for u, v in pairs.tolist())
    assert len(lines) == len(pairs) + 1 + (inst.planted is not None) + (inst.params is not None)


@pytest.mark.parametrize(
    "graph, kind",
    [(Graph(3, [(0, 1), (1, 2)]), "undirected"), (Digraph(3, [(1, 0), (1, 2)]), "directed"),
     (Graph(0), "undirected"), (Digraph(0), "directed")],
    ids=["graph", "digraph", "empty-graph", "empty-digraph"],
)
def test_header_kind_is_the_graph_type(graph, kind, tmp_path):
    path, again = tmp_path / "inst.txt", tmp_path / "again.txt"
    write_instance(path, Instance(graph=graph))
    assert path.read_text().splitlines()[0].split()[2] == kind
    back = read_instance(path)
    assert type(back.graph) is type(graph) and back.graph == graph
    write_instance(again, back)
    assert again.read_bytes() == path.read_bytes()


def test_trailer_lines(tmp_path):
    path = tmp_path / "inst.txt"
    write_instance(
        path,
        Instance(
            graph=Digraph(3, [(0, 1)]),
            planted=[0],
            params=ModelParams(n=3, p=0.5, delta=0.4, k=3, seed=7),
        ),
    )
    lines = path.read_text().splitlines()
    assert lines[-2] == "planted 1 0"
    assert lines[-1] == "params delta=0.4 p=0.5 k=3 seed=7"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "not-a-header\n",
        "ihs-graph 2 undirected 3 0\n",
        "ihs-graph 1 sideways 3 0\n",
        "ihs-graph 1 undirected 3 2\n0 1\n",  # missing edge line
        "ihs-graph 1 undirected 3 1\n0 3\n",  # id out of range
        "ihs-graph 1 undirected 3 1\n0 0\n",  # self-loop
        "ihs-graph 1 undirected 3 1\n0 1 2\n",
        "ihs-graph 1 undirected 3 0\nplanted 2 0\n",  # count mismatch
        "ihs-graph 1 undirected 3 0\nplanted 1 7\n",  # planted id out of range
        "ihs-graph 1 undirected 3 0\nparams delta=x\n",
        "ihs-graph 1 undirected 3 0\nparams q=1\n",
        "ihs-graph 1 undirected 3 0\nmystery 1\n",
        "ihs-graph 1 undirected 3 1\n0.5 1\n",  # non-integer id
        "ihs-graph 1 undirected -3 0\n",  # negative vertex count
        "ihs-graph 1 directed 3 -1\n",  # negative arc count
        "ihs-graph 1 undirected 3 0\nplanted 2 0 0\n",  # duplicate planted id
        # params outside the ranges every model shares
        "ihs-graph 1 undirected 3 0\nparams p=nan seed=0\n",
        "ihs-graph 1 undirected 3 0\nparams p=7.5\n",
        "ihs-graph 1 undirected 3 0\nparams p=-0.1\n",
        "ihs-graph 1 undirected 3 0\nparams p=inf\n",
        "ihs-graph 1 undirected 3 0\nparams seed=-3\n",
        "ihs-graph 1 undirected 3 0\nparams seed=18446744073709551616\n",
        "ihs-graph 1 directed 3 0\nparams delta=nan p=0.1\n",
        "ihs-graph 1 directed 3 0\nparams delta=0.0 p=0.1\n",
        "ihs-graph 1 directed 3 0\nparams delta=1.5 p=0.1\n",
        "ihs-graph 1 directed 3 0\nparams p=0.1 k=2\n",
    ],
)
def test_parse_errors(text, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(InstanceFormatError):
        read_instance(path)


def read_text_instance(tmp_path, text):
    path = tmp_path / "inst.txt"
    path.write_bytes(text.encode())  # kept byte for byte: "\r\n" too
    return read_instance(path)


def test_loose_edge_lines_parse_like_canonical_ones(tmp_path):
    inst = read_text_instance(tmp_path, "ihs-graph 1 undirected 4 3\n0\t1\n 1  2 \r\n+2 3")
    assert inst.graph == Graph(4, [(0, 1), (1, 2), (2, 3)])


def test_bad_edge_line_past_the_first_slice_keeps_its_number(tmp_path):
    lines = [f"{u} {v}\n" for u in range(400) for v in range(u + 1, 400)][:70_000]
    lines[68_000] = "1 x\n"
    with pytest.raises(InstanceFormatError, match="bad edge line 68002: '1 x'"):
        read_text_instance(tmp_path, "ihs-graph 1 undirected 400 70000\n" + "".join(lines))


def test_params_trailer_may_exceed_the_oriented_model_bound(tmp_path):
    # 2p <= 1 binds only generated oriented digraphs: a hand-written file may exceed it
    text = "ihs-graph 1 directed 3 0\nparams delta=1.0 p=0.75 k=3 seed=18446744073709551615\n"
    inst = read_text_instance(tmp_path, text)
    assert inst.params == ModelParams(n=3, p=0.75, delta=1.0, k=3, seed=2**64 - 1)


def test_params_subset_keys(tmp_path):
    inst = read_text_instance(tmp_path, "ihs-graph 1 undirected 3 0\nparams p=0.25 seed=3\n")
    assert inst.params.p == 0.25
    assert inst.params.seed == 3
    assert inst.params.delta is None and inst.params.k is None
