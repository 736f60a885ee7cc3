package repro.sim

import scala.collection.mutable

/** Deterministic discrete-event simulator.
  *
  * Events are (time, insertion-seq) ordered, so runs are exactly
  * reproducible: two events at the same simulated instant fire in the
  * order they were scheduled. All engine state mutation happens inside
  * event thunks on a single thread.
  */
final class Sim {
  private final case class Ev(time: Double, seq: Long, thunk: () => Unit)
  private implicit val ord: Ordering[Ev] =
    Ordering.by[Ev, (Double, Long)](e => (e.time, e.seq)).reverse
  private val pq = mutable.PriorityQueue.empty[Ev]
  private var seq = 0L

  /** Current simulated time in seconds. */
  var now: Double = 0.0

  /** Schedule `f` at absolute simulated time `t` (clamped to `now`). */
  def at(t: Double)(f: => Unit): Unit = {
    pq.enqueue(Ev(math.max(t, now), seq, () => f))
    seq += 1
  }

  /** Schedule `f` `d` seconds from now. */
  def after(d: Double)(f: => Unit): Unit = at(now + d)(f)

  /** Drain the event queue. Throws if `maxEvents` is exceeded (runaway guard). */
  def run(maxEvents: Long = 100_000_000L): Unit = {
    var n = 0L
    while (pq.nonEmpty) {
      val e = pq.dequeue()
      now = e.time
      e.thunk()
      n += 1
      if (n > maxEvents) throw new IllegalStateException(s"Sim exceeded $maxEvents events")
    }
  }

  def pendingEvents: Int = pq.size
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
