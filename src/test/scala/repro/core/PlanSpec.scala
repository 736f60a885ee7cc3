package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Rows.R

class PlanSpec extends AnyFunSuite {
  private val sch = Sch.of("k" -> CLong, "v" -> CLong)

  private def mkAgg(b: PlanBuilder, up: Int): Int =
    b.agg(up, r => Vector(r(0)), 1, sch)((a, r) => a(0) += Rows.lng(r, 1))(
      (k, a) => Array[Any](k(0), a(0)))

  test("builder wires a scan-join-agg tree with partitioning keys") {
    val b = new PlanBuilder("t")
    val s0 = b.input("a", sch)(identity)
    val s1 = b.input("b", sch)(identity)
    val j = b.join(s0, s1, Seq("k") -> Seq("k"), sch)((l, _) => l)
    mkAgg(b, j)
    val p = b.build()
    assert(p.stages.size == 4)
    assert(p.stages(0).outHash != null && p.stages(1).outHash != null)
    assert(p.consumer(0).contains(2) && p.consumer(2).contains(3) && p.consumer(3).isEmpty)
    assert(p.last == 3)
    assert(!p.stages(0).stateful && p.stages(2).stateful)
  }

  test("a stage cannot feed two consumers") {
    val b = new PlanBuilder("t")
    val s0 = b.input("a", sch)(identity)
    val s1 = b.input("b", sch)(identity)
    b.join(s0, s1, Seq("k") -> Seq("k"), sch)((l, _) => l)
    assertThrows[IllegalArgumentException] {
      b.join(s0, s1, Seq("k") -> Seq("k"), sch)((l, _) => l)
    }
  }

  test("a hand-built plan whose stage feeds two consumers is rejected") {
    val key = JoinKey(0, -1)
    val join = JoinOp(key, key, (l, _) => l)
    val agg = AggOp(r => Vector(r(0)), 1, (a, r) => a(0) += Rows.lng(r, 1),
      (k, a) => Array[Any](k(0), a(0)))
    def input(id: Int) = Stage(id, InputOp("a", identity[Array[R]]), Vector.empty, sch, key.hash)
    val stages = Vector(input(0), input(1), Stage(2, join, Vector(0, 1), sch, key.hash))
    Plan(stages :+ Stage(3, agg, Vector(2), sch, null), "ok")
    val e = intercept[IllegalArgumentException] {
      val second = Stage(3, join, Vector(0, 2), sch, key.hash)
      Plan(stages ++ Vector(second, Stage(4, agg, Vector(3), sch, null)), "bad")
    }
    assert(e.getMessage.contains("stage 0 feeds 2 consumers"))
  }

  test("a stage that lists one upstream twice is rejected, naming the stage") {
    val b = new PlanBuilder("dup")
    val s = b.input("a", sch)(identity)
    val j = b.join(s, s, Seq("k") -> Seq("k"), sch)((l, _) => l)
    mkAgg(b, j)
    val e = intercept[IllegalArgumentException](b.build())
    assert(e.getMessage.contains(s"stage $j lists an upstream twice"), e.getMessage)
  }

  test("plans must end in an aggregation") {
    val b = new PlanBuilder("t")
    val s0 = b.input("a", sch)(identity)
    val s1 = b.input("b", sch)(identity)
    b.join(s0, s1, Seq("k") -> Seq("k"), sch)((l, _) => l)
    assertThrows[IllegalArgumentException](b.build())
  }

  test("only the final stage aggregates") {
    val b = new PlanBuilder("t")
    mkAgg(b, mkAgg(b, b.input("a", sch)(identity)))
    assertThrows[IllegalArgumentException](b.build())
  }

  test("upstreams must precede their consumers (dense topological ids)") {
    val stages = Vector(
      Stage(0, InputOp("a", identity[Array[R]]), Vector.empty, sch, r => r(0).hashCode))
    assertThrows[IllegalArgumentException] {
      Plan(stages :+ Stage(2, InputOp("b", identity[Array[R]]), Vector.empty, sch, null), "bad")
    }
  }

  private val src = Sch.of("id" -> CLong, "name" -> CString, "price" -> CDouble)
  private val srcRows: Array[R] =
    Array(Array[Any](1L, "a", 1.5), Array[Any](2L, "b", 2.5), Array[Any](3L, "c", 3.5))

  /** Every output row of join stage `j` for the given left and right rows. */
  private def joinRows(p: Plan, j: Int, left: Array[R], right: Array[R]): Vector[Vector[Any]] = {
    val op = p.stages(j).op.asInstanceOf[JoinOp]
    def key(k: JoinKey, r: R) = (k.first(r), k.second(r))
    for (l <- left.toVector; r <- right.toVector if key(op.lKey, l) == key(op.rKey, r);
         o = op.emit(l, r) if o != null) yield o.toVector
  }

  test("scan keeps the named columns, typed from the source, of the rows keep accepts") {
    val b = new PlanBuilder("t")
    val s = b.scan("a", src, "price", "id")(r => Rows.lng(r, 0) != 2L)
    mkAgg(b, s)
    val stage = b.build().stages(s)
    val op = stage.op.asInstanceOf[InputOp]
    assert(stage.schema == Sch.of("price" -> CDouble, "id" -> CLong))
    assert(op.table == "a")
    assert(op.fuse(srcRows).map(_.toVector).toVector ==
      Vector(Vector(1.5, 1L), Vector(3.5, 3L)))
  }

  /** `price` in cents, computed from the `src` row. */
  private val cents = Computed("cents", CLong, "price")((r, at) => Money.c2(Rows.dbl(r, at(0))))

  private def fuse(p: Plan, s: Int): Array[R] => Array[R] = p.stages(s).op.asInstanceOf[InputOp].fuse

  test("scan mixes table and computed columns like the equivalent hand-written input") {
    val keep: R => Boolean = r => Rows.lng(r, 0) != 2L
    def plan(named: Boolean): Plan = {
      val b = new PlanBuilder("t")
      val s =
        if (named) b.scan("a", src, "name", cents, "id")(keep)
        else b.input("a", Sch.of("name" -> CString, "cents" -> CLong, "id" -> CLong))(
          PlanBuilder.filterProject(keep,
            r => Array[Any](Rows.str(r, 1), Money.c2(Rows.dbl(r, 2)), Rows.lng(r, 0))))
      mkAgg(b, s)
      b.build()
    }
    val (named, byHand) = (plan(named = true), plan(named = false))
    assert(named.stages(0).schema == byHand.stages(0).schema)
    def out(p: Plan) = fuse(p, 0)(srcRows).toVector.map(_.toVector.map(v => (v, v.getClass)))
    assert(out(named).map(_.map(_._1)) == Vector(Vector("a", 150L, 1L), Vector("c", 350L, 3L)))
    assert(out(named) == out(byHand))
  }

  test("scan gives each output row boxes of its own") {
    val rows: Array[R] = Array(Array[Any](1000L, "a", 1.25), Array[Any](2000L, "b", 2.5))
    val b = new PlanBuilder("t")
    val s = b.scan("a", src, "price", "id", cents)(_ => true)
    mkAgg(b, s)
    val out = fuse(b.build(), s)(rows)
    assert(out.map(_.toVector).toVector == Vector(Vector(1.25, 1000L, 125L), Vector(2.5, 2000L, 250L)))
    for ((o, r) <- out.zip(rows); v <- o; w <- r)
      assert(!(v.asInstanceOf[AnyRef] eq w.asInstanceOf[AnyRef]), s"$v shares its box with the table row")
  }

  private def scanOf(cols: Any*): Unit = new PlanBuilder("t").scan("a", src, cols: _*)(_ => true)

  test("scan rejects an unknown column name when the plan is built") {
    scanOf("id", cents)
    assertThrows[NoSuchElementException](scanOf("id", "missing"))
    assertThrows[NoSuchElementException](scanOf("id", Computed("x", CLong, "missing")((r, at) => r(at(0)))))
    assertThrows[IllegalArgumentException](scanOf("id", 3))
  }

  test("scan rejects a computed column named like a column of the table") {
    assertThrows[IllegalArgumentException](scanOf("id", Computed("price", CLong, "id")((r, at) => r(at(0)))))
  }

  test("joinOn emits the rows of the equivalent hand-written join") {
    val other = Sch.of("ref" -> CLong, "qty" -> CLong)
    val otherRows: Array[R] =
      Array(Array[Any](3L, 30L), Array[Any](1L, 10L), Array[Any](1L, 11L), Array[Any](9L, 90L))
    def plan(named: Boolean): Plan = {
      val b = new PlanBuilder("t")
      val sa = b.input("a", src)(identity)
      val sb = b.input("b", other)(identity)
      val j =
        if (named) b.joinOn(sa, sb, "id" -> "ref", "qty", "name", "id")
        else b.join(sa, sb, Seq("id") -> Seq("ref"),
          Sch.of("qty" -> CLong, "name" -> CString, "id" -> CLong)) { (a, o) =>
          Array[Any](o(1), a(1), a(0))
        }
      mkAgg(b, j)
      b.build()
    }
    val (named, byHand) = (plan(named = true), plan(named = false))
    assert(named.stages(2).schema == byHand.stages(2).schema)
    val rows = joinRows(named, 2, srcRows, otherRows)
    assert(rows.size == 3)
    assert(rows == joinRows(byHand, 2, srcRows, otherRows))
    for (s <- 0 to 1; r <- srcRows ++ otherRows)
      assert(named.stages(s).outHash(r) == byHand.stages(s).outHash(r))
  }

  test("joinOn passes on a side it keeps whole and copies any other selection") {
    val b = new PlanBuilder("t")
    val sa = b.input("a", Sch.of("ref" -> CLong))(identity)
    val sb = b.input("b", src)(identity)
    val whole = b.joinOn(sa, sb, "ref" -> "id", "id", "name", "price")
    val sc = b.input("c", Sch.of("key" -> CLong))(identity)
    val part = b.joinOn(whole, sc, "id" -> "key", "price", "id")
    mkAgg(b, part)
    val p = b.build()
    val (l, r) = (Array[Any](1L), srcRows(0))
    assert(p.stages(whole).schema == src)
    assert(p.stages(whole).op.asInstanceOf[JoinOp].emit(l, r) eq r)
    val copied = p.stages(part).op.asInstanceOf[JoinOp].emit(r, Array[Any](1L))
    assert(copied.toVector == Vector(1.5, 1L))
  }

  test("joinOn rejects a column on both sides or neither, and unknown keys") {
    def attempt(on: (String, String), cols: String*): Unit = {
      val b = new PlanBuilder("t")
      val sa = b.input("a", src)(identity)
      val sb = b.input("b", Sch.of("id" -> CLong, "qty" -> CLong))(identity)
      b.joinOn(sa, sb, on, cols: _*)
    }
    attempt("id" -> "id", "name", "qty")
    assertThrows[IllegalArgumentException](attempt("id" -> "id", "id"))
    assertThrows[IllegalArgumentException](attempt("id" -> "id", "missing"))
    assertThrows[NoSuchElementException](attempt("nokey" -> "id", "qty"))
    assertThrows[NoSuchElementException](attempt("id" -> "nokey", "qty"))
  }

  test("join keys are one or two CLong columns, as many on each side, checked at plan build") {
    val typed = Sch.of("id" -> CLong, "sub" -> CLong, "name" -> CString, "price" -> CDouble)
    def attempt(l: String*)(r: String*): Unit = {
      val b = new PlanBuilder("t")
      val sa = b.input("a", typed)(identity)
      val sb = b.input("b", typed)(identity)
      b.join(sa, sb, l -> r, typed)((x, _) => x)
    }
    attempt("id")("id")
    attempt("id", "sub")("sub", "id")
    assertThrows[IllegalArgumentException](attempt("name")("name"))
    assertThrows[IllegalArgumentException](attempt("id")("price"))
    assertThrows[IllegalArgumentException](attempt("id", "name")("id", "sub"))
    assertThrows[IllegalArgumentException](attempt("id")("id", "sub"))
    assertThrows[IllegalArgumentException](attempt("id", "sub")("id"))
    assertThrows[IllegalArgumentException](attempt()())
    assertThrows[IllegalArgumentException](attempt("id", "sub", "id")("id", "sub", "id"))
    assertThrows[IllegalArgumentException] {
      val b = new PlanBuilder("t")
      val sb = b.input("b", Sch.of("tag" -> CString, "qty" -> CLong))(identity)
      b.joinOn(b.input("a", typed)(identity), sb, "name" -> "tag", "qty")
    }
  }

  test("static batch size must be positive") {
    assertThrows[IllegalArgumentException](StaticBatch(0))
  }

  test("engine config derives channel count") {
    val c = EngineConfig(workers = 4, channelsPerWorker = 3)
    assert(c.channels == 12)
    assertThrows[IllegalArgumentException](EngineConfig(workers = 0))
  }
}
