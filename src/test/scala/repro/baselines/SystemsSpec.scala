package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CostParams, EngineConfig}

/** The evaluated Quokka is one configuration: `EngineConfig`'s defaults on
  * its cluster's costs.
  */
class SystemsSpec extends AnyFunSuite {
  test("Quokka is EngineConfig's defaults on its cluster's costs, and the defaults are the 4-worker cluster's") {
    for (w <- Seq(3, 4, 16)) assert(Systems.quokka(w) == EngineConfig(w, cost = Systems.costFor(w)))
    assert(CostParams() == Systems.costFor(4))
  }
}
