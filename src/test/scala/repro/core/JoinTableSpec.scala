package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Rows.R
import scala.collection.mutable

class JoinTableSpec extends AnyFunSuite {
  private def row(i: Int): R = Array[Any](i.toLong)

  /** The row indices of key (a, b), in chain order. */
  private def chain(t: JoinTable, a: Long, b: Long): Vector[Int] =
    Iterator.iterate(t.first(a, b))(t.next).takeWhile(_ >= 0).toVector

  /** Add `keys` in order, the i-th with row i, and check every key's chain
    * against an insertion-ordered map of row lists.
    */
  private def check(keys: Seq[(Long, Long)]): JoinTable = {
    val t = new JoinTable
    val want = mutable.LinkedHashMap.empty[(Long, Long), mutable.ArrayBuffer[Int]]
    for (((a, b), i) <- keys.zipWithIndex) {
      val r = row(i)
      t.add(a, b, r)
      want.getOrElseUpdate((a, b), mutable.ArrayBuffer.empty) += i
      assert(t.row(i) eq r)
    }
    assert(t.size == keys.size)
    for (((a, b), rows) <- want) assert(chain(t, a, b) == rows.toVector, s"key ($a, $b)")
    t
  }

  private val extremes = Seq(0L, -1L, 1L, Long.MinValue, Long.MaxValue, Int.MinValue.toLong,
    Int.MaxValue.toLong, Int.MaxValue + 1L, -1L << 32, 1L << 32)

  test("extreme and negative keys keep their own rows, in arrival order") {
    val keys = (extremes ++ extremes.reverse ++ extremes).map(k => (k, 0L))
    check(keys)
  }

  test("keys that collide in a slot keep their own rows") {
    val colliding = Iterator.from(0).map(_.toLong)
      .filter(k => (JoinTable.mix(k, 0L) & 15) == (JoinTable.mix(0L, 0L) & 15)).take(6).toVector
    assert(colliding.size == 6 && colliding.head == 0L)
    val t = check((colliding ++ colliding.reverse ++ colliding.take(2)).map(k => (k, 0L)))
    assert(t.size == 14)
  }

  test("growth across several resizes keeps each key's rows in arrival order") {
    val rng = new scala.util.Random(3)
    val pool = extremes ++ Seq.fill(3000)(rng.nextLong()) ++ (-500L to 500L)
    check(Seq.fill(20000)(pool(rng.nextInt(pool.size))).map(k => (k, 0L)))
  }

  test("a probe of an absent key finds nothing") {
    val t = check((1L to 100L).map(k => (k, 0L)))
    for (k <- Seq(0L, 101L, -1L, Long.MinValue, Long.MaxValue)) assert(t.first(k, 0L) == -1)
    assert(t.first(1L, 1L) == -1)
    assert(chain(new JoinTable, 0L, 0L).isEmpty)
  }

  test("pair keys that differ in only one half are different keys") {
    val t = check(Seq((1L, 2L), (1L, 3L), (2L, 2L), (2L, 1L), (1L, 2L), (0L, 0L), (0L, Long.MinValue),
      (Long.MinValue, 0L), (3L, 2L), (1L, 3L)))
    assert(chain(t, 1L, 2L) == Vector(0, 4))
    assert(chain(t, 1L, 3L) == Vector(1, 9))
    assert(t.first(3L, 3L) == -1)
  }

  /** The partitioning of boxed keys: a key's `hashCode` mod C, made
    * non-negative.
    */
  private def boxedChannel(k: Any, c: Int): Int = {
    val h = k.hashCode
    val m = h % c
    if (m < 0) m + c else m
  }

  test("a primitive key goes to the channel its boxed Long or Tuple2 went to") {
    val rng = new scala.util.Random(11)
    val longs = extremes ++ Seq.fill(2000)(rng.nextLong()) ++ Seq.fill(2000)(rng.nextInt().toLong) ++
      Seq.fill(500)(-rng.nextInt(1000).toLong)
    val one = JoinKey(0, -1)
    val two = JoinKey(1, 0)
    for (c <- Seq(3, 12, 16, 64)) {
      for (x <- longs)
        assert(Engine.channelOf(one.hash(Array[Any](x)), c) == boxedChannel(x, c), s"key $x, C = $c")
      for (x <- longs; y = longs(rng.nextInt(longs.size)))
        assert(Engine.channelOf(two.hash(Array[Any](y, x)), c) == boxedChannel((x, y), c),
          s"key ($x, $y), C = $c")
    }
  }
}
