package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.{SparkSpec, TestUtil}
import repro.baselines.{EngineRunner, Systems}
import repro.ft.Spool
import repro.queries.{TpchData, TpchLite}

/** Property: for any kill time and any victim, the recovered result equals
  * the clean result (which QueriesSpec ties to DuckDB). Driven by raw
  * ScalaCheck (scalatestplus is not available offline).
  */
class RecoveryPropSpec extends SparkSpec {
  private lazy val t = TpchData.load(spark, 0.005)

  private def cfg = EngineConfig(
    workers = 3,
    cost = CostParams(coresPerWorker = 4, detectS = 0.3, planS = 0.05),
    inputBatchRows = 1024)

  private def check(prop: Prop, n: Int): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(n), prop)
    assert(res.passed, s"property falsified: ${res.status}")
  }

  test("q3 survives arbitrary (worker, kill-fraction) failures") {
    val ref = EngineRunner.run(cfg, TpchLite.q3, t)
    val refCanon = TestUtil.canon(ref.rows)
    val gen = for {
      w <- Gen.choose(0, 2)
      frac <- Gen.choose(0.02, 0.95)
    } yield (w, frac)
    check(Prop.forAll(gen) { case (w, frac) =>
      val rr = EngineRunner.run(cfg, TpchLite.q3, t,
        failures = Seq((w, ref.simSeconds * frac)))
      TestUtil.canon(rr.rows) == refCanon
    }, 8)
  }

  test("q9 survives arbitrary kill fractions with varied recovery seeds") {
    val ref = EngineRunner.run(cfg, TpchLite.q9, t)
    val refCanon = TestUtil.canon(ref.rows)
    val gen = for {
      frac <- Gen.choose(0.05, 0.9)
      seed <- Gen.choose(0L, 1000L)
    } yield (frac, seed)
    check(Prop.forAll(gen) { case (frac, seed) =>
      val rr = EngineRunner.run(cfg.copy(seed = seed), TpchLite.q9, t,
        failures = Seq((1, ref.simSeconds * frac)))
      TestUtil.canon(rr.rows) == refCanon
    }, 8)
  }

  test("double failures at random points recover (q5)") {
    val ref = EngineRunner.run(cfg, TpchLite.q5, t)
    val refCanon = TestUtil.canon(ref.rows)
    val gen = for {
      f1 <- Gen.choose(0.1, 0.4)
      f2 <- Gen.choose(0.9, 1.6)
    } yield (f1, f2)
    check(Prop.forAll(gen) { case (f1, f2) =>
      val rr = EngineRunner.run(cfg, TpchLite.q5, t,
        failures = Seq((1, ref.simSeconds * f1), (2, ref.simSeconds * f2)))
      TestUtil.canon(rr.rows) == refCanon
    }, 5)
  }

  /** For each of q3 and q9 under `sys`, 6 draws of one or two kills of
    * random victims; the second kill, if any, lands during the first one's
    * detection, during its planning, or later.
    */
  private def randomKills(sys: EngineConfig): Unit = {
    import sys.cost.{detectS, planS}
    val w = sys.workers
    for (q <- Vector(TpchLite.q3, TpchLite.q9)) {
      val ref = EngineRunner.run(sys, q, t)
      val refCanon = TestUtil.canon(ref.rows)
      val gen = for {
        v1 <- Gen.choose(0, w - 1)
        f1 <- Gen.choose(0.05, 0.9)
        v2 <- Gen.choose(1, w - 1).map(d => (v1 + d) % w)
        second <- Gen.oneOf(
          Gen.const(Option.empty[Double]),
          Gen.choose(0.0, detectS).map(Some(_)),
          Gen.choose(detectS, detectS + planS).map(Some(_)),
          Gen.choose(detectS + planS, detectS + planS + ref.simSeconds).map(Some(_)))
      } yield {
        val t1 = ref.simSeconds * f1
        (v1, t1) +: second.toSeq.map(d => (v2, t1 + d))
      }
      check(Prop.forAll(gen) { kills =>
        val rr = EngineRunner.run(sys, q, t, failures = kills)
        TestUtil.canon(rr.rows) == refCanon
      }, 6)
    }
  }

  test("16 workers: one or two kills of random victims, the second possibly during detection or planning (q3, q9)") {
    randomKills(Systems.quokka(16))
  }

  test("spooling, 3 workers: one or two kills of random victims, the second possibly during detection or planning (q3, q9)") {
    randomKills(cfg.copy(ft = Spool))
  }
}
