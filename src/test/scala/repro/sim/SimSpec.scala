package repro.sim

import org.scalatest.funsuite.AnyFunSuite

class SimSpec extends AnyFunSuite {

  test("events fire in time order") {
    val sim = new Sim
    val order = scala.collection.mutable.ArrayBuffer.empty[Int]
    sim.at(3.0)(order += 3)
    sim.at(1.0)(order += 1)
    sim.at(2.0)(order += 2)
    sim.run()
    assert(order.toList == List(1, 2, 3))
  }

  test("same-time events fire in scheduling order") {
    val sim = new Sim
    val order = scala.collection.mutable.ArrayBuffer.empty[Int]
    for (i <- 0 until 10) sim.at(5.0)(order += i)
    sim.run()
    assert(order.toList == (0 until 10).toList)
  }

  test("events can schedule further events") {
    val sim = new Sim
    var count = 0
    def chain(n: Int): Unit = if (n > 0) { count += 1; sim.after(1.0)(chain(n - 1)) }
    sim.at(0.0)(chain(5))
    sim.run()
    assert(count == 5)
    assert(sim.now == 5.0)
  }

  test("at() clamps past times to now") {
    val sim = new Sim
    var t = -1.0
    sim.at(10.0) { sim.at(3.0) { t = sim.now } }
    sim.run()
    assert(t == 10.0)
  }

  test("run throws on runaway event generation") {
    val sim = new Sim
    def loop(): Unit = sim.after(0.001)(loop())
    sim.at(0.0)(loop())
    assertThrows[IllegalStateException](sim.run(maxEvents = 1000))
  }

  test("Serial resource serializes overlapping requests") {
    val s = new Serial
    assert(s.use(0.0, 2.0) == 2.0)
    assert(s.use(1.0, 2.0) == 4.0) // queued behind the first
    assert(s.use(10.0, 1.0) == 11.0) // idle gap
  }

  test("Serial rejects negative durations") {
    assertThrows[IllegalArgumentException](new Serial().use(0.0, -1.0))
  }

  test("Slots run k requests concurrently, queue the rest") {
    val s = new Slots(2)
    assert(s.use(0.0, 4.0) == 4.0)
    assert(s.use(0.0, 4.0) == 4.0) // second core
    assert(s.use(0.0, 4.0) == 8.0) // queued
    assert(s.use(0.0, 1.0) == 5.0) // lands on the earlier-free core
  }

  test("Slots with one core degrade to Serial behaviour") {
    val s = new Slots(1)
    assert(s.use(0.0, 1.0) == 1.0)
    assert(s.use(0.0, 1.0) == 2.0)
  }

  test("Slots requires positive capacity") {
    assertThrows[IllegalArgumentException](new Slots(0))
  }

  test("20k random events fire like a stable sort by (clamped time, insertion seq)") {
    final case class Ev(id: Int, time: Double, seq: Long)
    val rng = new scala.util.Random(11)
    val sim = new Sim
    val scheduled = scala.collection.mutable.ArrayBuffer.empty[Ev]
    val fired = scala.collection.mutable.ArrayBuffer.empty[Int]
    var maxPending = 0
    // times from a coarse grid, so many events share an instant; offsets
    // below zero schedule into the past and are clamped to `now`
    def schedule(): Unit = {
      val id = scheduled.size
      val t = if (sim.now == 0.0 && fired.isEmpty) rng.nextInt(40) * 0.25
              else sim.now + (rng.nextInt(9) - 3) * 0.25
      scheduled += Ev(id, math.max(t, sim.now), scheduled.size.toLong)
      sim.at(t) {
        assert(sim.now == scheduled(id).time)
        fired += id
        assert(sim.pendingEvents == scheduled.size - fired.size)
        val children = rng.nextInt(4)
        for (_ <- 0 until children if scheduled.size < 20000) schedule()
        maxPending = math.max(maxPending, sim.pendingEvents)
      }
    }
    for (_ <- 0 until 3000) schedule()
    assert(sim.pendingEvents == 3000)
    sim.run()
    assert(scheduled.size == 20000 && sim.pendingEvents == 0)
    assert(maxPending > 3000, "the heap never grew past its first fill")
    val want = scheduled.sortWith { (a, b) =>
      val c = java.lang.Double.compare(a.time, b.time)
      c < 0 || (c == 0 && a.seq < b.seq)
    }.map(_.id)
    assert(fired == want)
    // the queue is reusable once drained
    sim.at(0.0)(fired += -1)
    sim.run()
    assert(fired.last == -1 && sim.pendingEvents == 0)
  }

  test("pendingEvents reflects the queue") {
    val sim = new Sim
    sim.at(1.0)(())
    sim.at(2.0)(())
    assert(sim.pendingEvents == 2)
    sim.run()
    assert(sim.pendingEvents == 0)
  }
}
