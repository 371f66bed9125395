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
from ihs.instance_io import instance_from_text, instance_to_text


def test_round_trip_undirected(tmp_path):
    g = Graph(4, [(2, 3), (0, 1), (1, 2)])
    inst = Instance(graph=g, directed=False, params=ModelParams(n=4, p=0.25, seed=9))
    path = tmp_path / "g.txt"
    write_instance(path, inst)
    text = path.read_text()
    assert text.splitlines()[0] == "ihs-graph 1 undirected 4 3"
    back = read_instance(path)
    assert back.graph == g
    assert back.params == inst.params
    assert instance_to_text(back) == text


def test_round_trip_planted(tmp_path):
    model = gen_planted(ModelParams(n=40, p=0.3, delta=0.2, k=3, seed=5))
    inst = Instance(
        graph=model.digraph, directed=True, planted=model.planted, params=model.params
    )
    path = tmp_path / "d.txt"
    write_instance(path, inst)
    back = read_instance(path)
    assert back.graph == model.digraph
    assert back.planted == model.planted
    assert back.params == model.params
    assert instance_to_text(back) == path.read_text()


@pytest.mark.parametrize("kind", ["gnp", "planted", "empty"])
def test_file_bytes_equal_text(tmp_path, kind):
    # the gnp instance has ~79k edges, more than one slice of pair lines
    if kind == "gnp":
        params = ModelParams(n=1500, p=0.07, seed=3)
        inst = Instance(graph=gen_gnp(params), directed=False, params=params)
    elif kind == "planted":
        model = gen_planted(ModelParams(n=60, p=0.3, delta=0.1, k=3, seed=2))
        inst = Instance(graph=model.digraph, directed=True, planted=model.planted, params=model.params)
    else:
        inst = Instance(graph=Graph(0), directed=False)
    path = tmp_path / "inst.txt"
    write_instance(path, inst)
    assert path.read_bytes() == instance_to_text(inst).encode()


def test_trailer_lines():
    text = instance_to_text(
        Instance(
            graph=Digraph(3, [(0, 1)]),
            directed=True,
            planted=[0],
            params=ModelParams(n=3, p=0.5, delta=0.4, k=3, seed=7),
        )
    )
    lines = text.splitlines()
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
    with pytest.raises(InstanceFormatError):
        instance_from_text(text)
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(InstanceFormatError):
        read_instance(path)


def test_loose_edge_lines_parse_like_canonical_ones():
    inst = instance_from_text("ihs-graph 1 undirected 4 3\n0\t1\n 1  2 \r\n+2 3")
    assert inst.graph == Graph(4, [(0, 1), (1, 2), (2, 3)])


def test_bad_edge_line_past_the_first_slice_keeps_its_number():
    lines = [f"{u} {v}\n" for u in range(400) for v in range(u + 1, 400)][:70_000]
    lines[68_000] = "1 x\n"
    with pytest.raises(InstanceFormatError, match="bad edge line 68002: '1 x'"):
        instance_from_text("ihs-graph 1 undirected 400 70000\n" + "".join(lines))


def test_params_trailer_may_exceed_the_oriented_model_bound():
    # 2p <= 1 binds only generated oriented digraphs: a hand-written file may exceed it
    text = "ihs-graph 1 directed 3 0\nparams delta=1.0 p=0.75 k=3 seed=18446744073709551615\n"
    inst = instance_from_text(text)
    assert inst.params == ModelParams(n=3, p=0.75, delta=1.0, k=3, seed=2**64 - 1)


def test_params_subset_keys():
    inst = instance_from_text("ihs-graph 1 undirected 3 0\nparams p=0.25 seed=3\n")
    assert inst.params.p == 0.25
    assert inst.params.seed == 3
    assert inst.params.delta is None and inst.params.k is None
