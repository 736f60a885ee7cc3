package repro.core

import org.scalatest.funsuite.AnyFunSuite

class GcsSpec extends AnyFunSuite {
  /** A store for five stages of three channels each. */
  private def newGcs() = new Gcs(stages = 5, channels = 3)

  test("commits advance the committed prefix in order") {
    val g = newGcs()
    assert(g.committedCount(g.index(0, 0)) == 0)
    g.commit(g.index(0, 0), 0, ReadRec)
    g.commit(g.index(0, 0), 1, ReadRec)
    assert(g.committedCount(g.index(0, 0)) == 2)
    assert(g.isCommitted(g.index(0, 0), 1))
    assert(!g.isCommitted(g.index(0, 0), 2))
  }

  test("out-of-order commits are buffered until the prefix completes") {
    val g = newGcs()
    g.commit(g.index(1, 0), 1, ConsumeRec(0, 2)) // seq 1 before seq 0
    assert(g.committedCount(g.index(1, 0)) == 0)
    g.commit(g.index(1, 0), 0, ConsumeRec(1, 1))
    assert(g.committedCount(g.index(1, 0)) == 2) // both drained
    assert(g.rec(g.index(1, 0), 1) == ConsumeRec(0, 2))
  }

  test("done-marking waits for the committed prefix") {
    val g = newGcs()
    val doneEarly = g.commit(g.index(2, 0), 1, FlushRec, markDone = true) // buffered
    assert(!doneEarly)
    assert(!g.channelDone(g.index(2, 0)))
    val doneNow = g.commit(g.index(2, 0), 0, ConsumeRec(0, 3))
    assert(doneNow) // flush drained, channel becomes done by this commit
    assert(g.channelDone(g.index(2, 0)))
  }

  test("rewind drops the channel's buffered commits and pending done mark, and no other channel's") {
    val g = newGcs()
    val (i, j) = (g.index(2, 0), g.index(2, 1))
    g.commit(i, 0, ConsumeRec(0, 1))
    g.commit(i, 2, FlushRec, markDone = true) // buffered past the gap at seq 1
    g.commit(j, 1, ConsumeRec(1, 1)) // another channel's buffered commit
    g.rewind(i)
    assert(!g.commit(i, 1, ConsumeRec(0, 4)), "the dropped flush must not mark done")
    assert(g.committedCount(i) == 2 && !g.channelDone(i))
    assert(g.commit(i, 2, FlushRec, markDone = true))
    g.commit(j, 0, ConsumeRec(1, 3))
    assert(g.committedCount(j) == 2)
  }

  test("markDone is idempotent and reports first-time transitions") {
    val g = newGcs()
    assert(g.markDone(g.index(3, 1)))
    assert(!g.markDone(g.index(3, 1)))
    assert(g.channelDone(g.index(3, 1)))
  }

  test("rec returns each committed record by seq") {
    val g = newGcs()
    g.commit(g.index(1, 2), 0, ConsumeRec(0, 4))
    g.commit(g.index(1, 2), 1, ConsumeRec(2, 1))
    g.commit(g.index(1, 2), 2, FlushRec)
    assert((0 until 3).map(g.rec(g.index(1, 2), _)) ==
      Seq(ConsumeRec(0, 4), ConsumeRec(2, 1), FlushRec))
  }

  test("rec throws for uncommitted lineage") {
    val g = newGcs()
    assertThrows[NoSuchElementException](g.rec(g.index(0, 0), 0))
  }

  test("re-commit of an already-committed seq is a no-op (replay safety)") {
    val g = newGcs()
    g.commit(g.index(1, 0), 0, ConsumeRec(0, 1))
    g.commit(g.index(1, 0), 0, ConsumeRec(0, 99)) // replayed duplicate
    assert(g.rec(g.index(1, 0), 0) == ConsumeRec(0, 1))
    assert(g.committedCount(g.index(1, 0)) == 1)
  }

  test("lineage is succinct: bytes per record stay constant-size") {
    // the §III-A naming-scheme claim: a consume record is two integers plus
    // the task name, independent of how many partitions it consumed
    assert(ConsumeRec(7, 1).byteSize == ConsumeRec(7, 100000).byteSize)
    val g = newGcs()
    for (s <- 0 until 1000) g.commit(g.index(4, 0), s, ConsumeRec(0, 1))
    assert(g.lineageBytes == 1000L * ConsumeRec(0, 1).byteSize)
    assert(g.lineageBytes < 32 * 1024, "per-channel lineage should be KB-sized")
  }

  test("transactions are counted for the overhead experiments") {
    val g = newGcs()
    g.commit(g.index(0, 0), 0, ReadRec)
    g.markDone(g.index(0, 1))
    assert(g.txns == 2)
  }
}
