package repro.core

import repro.core.Rows.R

/** One side of a join's state: its rows by key, in an open-addressing
  * table keyed by a pair of longs (a one-column key's second half is 0)
  * with linear probing, kept at most half full. A key's rows are chained by
  * row index in arrival order: `first(a, b)` is the index of its first row,
  * or -1, and `next(i)` the index of the row after row `i`, or -1.
  */
private[core] final class JoinTable {
  // slots: a key and the first and last rows of its chain; head -1 is empty
  private var keyA = new Array[Long](16)
  private var keyB = new Array[Long](16)
  private var head = Array.fill(16)(-1)
  private var tail = new Array[Int](16)
  private var keys = 0
  // rows by index, and the chain links
  private var rowAt = new Array[R](16)
  private var link = new Array[Int](16)
  /** Number of rows added. */
  var size = 0

  def add(a: Long, b: Long, r: R): Unit = {
    if (size == rowAt.length) {
      rowAt = java.util.Arrays.copyOf(rowAt, 2 * size)
      link = java.util.Arrays.copyOf(link, 2 * size)
    }
    rowAt(size) = r
    link(size) = -1
    val s = slot(a, b)
    if (head(s) < 0) {
      keyA(s) = a; keyB(s) = b; head(s) = size; tail(s) = size
      keys += 1
      if (2 * keys > head.length) grow()
    } else {
      link(tail(s)) = size
      tail(s) = size
    }
    size += 1
  }

  def first(a: Long, b: Long): Int = head(slot(a, b))
  def next(i: Int): Int = link(i)
  def row(i: Int): R = rowAt(i)

  /** The slot holding key (a, b), or the empty slot where it would go. */
  private def slot(a: Long, b: Long): Int = {
    val mask = head.length - 1
    var s = JoinTable.mix(a, b) & mask
    while (head(s) >= 0 && (keyA(s) != a || keyB(s) != b)) s = (s + 1) & mask
    s
  }

  private def grow(): Unit = {
    val (oa, ob, oh, ot) = (keyA, keyB, head, tail)
    val n = 2 * oh.length
    keyA = new Array[Long](n); keyB = new Array[Long](n)
    head = Array.fill(n)(-1); tail = new Array[Int](n)
    var i = 0
    while (i < oh.length) {
      if (oh(i) >= 0) {
        val s = slot(oa(i), ob(i))
        keyA(s) = oa(i); keyB(s) = ob(i); head(s) = oh(i); tail(s) = ot(i)
      }
      i += 1
    }
  }
}

private[core] object JoinTable {
  /** Slot hash of key (a, b): both halves multiplied into 64 bits and
    * folded, so consecutive keys spread over the table.
    */
  def mix(a: Long, b: Long): Int = {
    var h = a * 0x9E3779B97F4A7C15L + b
    h = (h ^ (h >>> 32)) * 0xD6E8FEB86659FD93L
    (h ^ (h >>> 32)).toInt
  }
}
