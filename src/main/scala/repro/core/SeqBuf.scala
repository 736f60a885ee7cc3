package repro.core

/** A growable array indexed by task seq, for the per-channel tables whose
  * keys are one channel's dense seq numbers (paper §III-A: objects are
  * named (stage, channel, seq)). `null` marks an absent entry.
  */
private[core] final class SeqBuf[A >: Null <: AnyRef] {
  private var a = new Array[AnyRef](8)

  def apply(seq: Int): A = if (seq < a.length) a(seq).asInstanceOf[A] else null

  def contains(seq: Int): Boolean = apply(seq) != null

  def update(seq: Int, v: A): Unit = {
    if (seq >= a.length) a = java.util.Arrays.copyOf(a, math.max(seq + 1, 2 * a.length))
    a(seq) = v
  }

  /** Removes and returns the entry at `seq` (null if absent). */
  def remove(seq: Int): A = {
    val v = apply(seq)
    if (v != null) a(seq) = null
    v
  }

  /** Drops every entry at seq `from` or above. */
  def truncate(from: Int): Unit =
    if (from < a.length) java.util.Arrays.fill(a, from, a.length, null)

  def clear(): Unit = truncate(0)

  /** Drops every entry that `keep` rejects. */
  def filterInPlace(keep: A => Boolean): Unit =
    for (s <- a.indices if a(s) != null && !keep(a(s).asInstanceOf[A])) a(s) = null

  /** Number of entries present. */
  def count: Int = a.count(_ != null)
}
