package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Rows.R

/** The dynamic batching rule, on a one-worker two-stage plan
  * (scan -> agg): the test commits the scan channel's outputs and files
  * them in the agg channel's mailbox itself, so the scan channel never runs.
  */
class BatchingSpec extends AnyFunSuite {
  private val sch = Sch.of("k" -> CLong, "v" -> CLong)

  private def engine(): Engine = {
    val b = new PlanBuilder("batching")
    val s = b.input("a", sch)(identity)
    b.agg(s, r => Vector(r(0)), 1, sch)((acc, r) => acc(0) += Rows.lng(r, 1))(
      (k, a) => Array[Any](k(0), a(0)))
    new Engine(EngineConfig(1), b.build(), Map("a" -> Array[R](Array[Any](1L, 1L))))
  }

  test("a dynamic consume task waits for Dynamic.MinRun outputs, or the remainder of a done upstream") {
    assert(Dynamic.MinRun == 4)
    val e = engine()
    val up = e.gcs.index(0, 0)
    val agg = e.channels(1)(0)
    val p = e.slot(0, 0)
    def output(seq: Int): Unit = {
      e.gcs.commit(up, seq, ReadRec)
      agg.arrive(p, seq, Array[R](Array[Any](seq.toLong, 1L)))
    }
    def launch(): Unit = { e.poke(agg); e.sim.run() }

    (0 until 3).foreach(output)
    launch()
    assert(e.metrics.tasks == 0 && agg.consumed(p) == 0)

    output(3)
    launch()
    assert(e.metrics.tasks == 1 && agg.consumed(p) == 4)
    assert(e.gcs.rec(agg.idx, 0) == ConsumeRec(0, 4))

    output(4)
    output(5)
    launch() // the poll gate opens again, but a run of 2 does not qualify
    assert(e.metrics.tasks == 1 && agg.consumed(p) == 4)

    assert(e.gcs.markDone(up))
    launch() // the remainder, then the flush
    assert(e.gcs.rec(agg.idx, 1) == ConsumeRec(0, 2))
    assert(e.gcs.rec(agg.idx, 2) == FlushRec && e.metrics.tasks == 3)
  }
}
