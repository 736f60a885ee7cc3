package repro.sim

import scala.annotation.nowarn

/** Deterministic discrete-event simulator.
  *
  * Events are (time, insertion-seq) ordered, so runs are exactly
  * reproducible: two events at the same simulated instant fire in the
  * order they were scheduled. All engine state mutation happens inside
  * event thunks on a single thread.
  *
  * The queue is a binary min-heap over parallel primitive arrays of times
  * and seqs, ordered by `java.lang.Double.compare` on the time and then by
  * the seq; the thunks ride along in a third array.
  */
final class Sim {
  private var times = new Array[Double](64)
  private var seqs = new Array[Long](64)
  private var thunks = new Array[() => Unit](64)
  private var size = 0
  private var seq = 0L

  /** Current simulated time in seconds. */
  var now: Double = 0.0

  /** Schedule `f` at absolute simulated time `t` (clamped to `now`). */
  def at(t: Double)(f: => Unit): Unit = {
    if (size == times.length) {
      times = java.util.Arrays.copyOf(times, size * 2)
      seqs = java.util.Arrays.copyOf(seqs, size * 2)
      thunks = java.util.Arrays.copyOf(thunks, size * 2)
    }
    // `f _` is the by-name thunk itself; `() => f` would allocate a closure per event
    siftUp(math.max(t, now), seq, (f _): @nowarn("cat=deprecation"))
    size += 1
    seq += 1
  }

  /** Schedule `f` `d` seconds from now. */
  def after(d: Double)(f: => Unit): Unit = at(now + d)(f)

  /** Drain the event queue. Throws if `maxEvents` is exceeded (runaway guard). */
  def run(maxEvents: Long = 100_000_000L): Unit = {
    var n = 0L
    while (size > 0) {
      val t = times(0)
      val f = thunks(0)
      size -= 1
      if (size > 0) siftDown(times(size), seqs(size), thunks(size))
      thunks(size) = null
      now = t
      f()
      n += 1
      if (n > maxEvents) throw new IllegalStateException(s"Sim exceeded $maxEvents events")
    }
  }

  def pendingEvents: Int = size

  private def before(t: Double, s: Long, i: Int): Boolean = {
    val c = java.lang.Double.compare(t, times(i))
    c < 0 || (c == 0 && s < seqs(i))
  }

  private def put(i: Int, t: Double, s: Long, f: () => Unit): Unit = {
    times(i) = t; seqs(i) = s; thunks(i) = f
  }

  /** Place (t, s, f) in the hole at index `size`, moving it towards the root. */
  private def siftUp(t: Double, s: Long, f: () => Unit): Unit = {
    var i = size
    while (i > 0 && before(t, s, (i - 1) >> 1)) {
      val parent = (i - 1) >> 1
      put(i, times(parent), seqs(parent), thunks(parent))
      i = parent
    }
    put(i, t, s, f)
  }

  /** Place (t, s, f) in the hole at the root, moving it towards the leaves. */
  private def siftDown(t: Double, s: Long, f: () => Unit): Unit = {
    var i = 0
    var done = false
    while (!done) {
      val l = 2 * i + 1
      if (l >= size) done = true
      else {
        val c = if (l + 1 < size && before(times(l + 1), seqs(l + 1), l)) l + 1 else l
        if (before(t, s, c)) done = true
        else { put(i, times(c), seqs(c), thunks(c)); i = c }
      }
    }
    put(i, t, s, f)
  }
}

/** A serially-used resource (NVMe queue, NIC uplink, S3 uplink):
  * requests are served FIFO at full bandwidth, one at a time.
  */
final class Serial {
  private var free = 0.0

  /** Reserve `dur` seconds starting no earlier than `t`; returns completion time. */
  def use(t: Double, dur: Double): Double = {
    require(dur >= 0, s"negative duration $dur")
    val start = math.max(free, t)
    free = start + dur
    free
  }

  def freeAt: Double = free
}

/** A pool of `k` identical slots (CPU cores): each request occupies the
  * earliest-free slot.
  */
final class Slots(val k: Int) {
  require(k > 0)
  private val free = Array.fill(k)(0.0)

  /** Reserve `dur` seconds on the earliest-free slot no earlier than `t`;
    * returns completion time.
    */
  def use(t: Double, dur: Double): Double = {
    require(dur >= 0, s"negative duration $dur")
    var best = 0
    var i = 1
    while (i < k) { if (free(i) < free(best)) best = i; i += 1 }
    val start = math.max(free(best), t)
    free(best) = start + dur
    free(best)
  }
}
