package repro.join

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropHelpers
import repro.core._
import repro.data.TextGen

class SignaturesSpec extends AnyFunSuite with PropHelpers {
  val k: Knowledge = Knowledge.figure1
  val T = "espresso cafe Helsinki"

  private def ctx(s: String, m: MeasureSet = MeasureSet.TJS,
                  order: Map[String, Int] = Map.empty): SignatureContext =
    SignatureContext(PreparedString(k, s), m, Measures.DefaultQ, order)

  /** An alphabetical order over the strings' TJS keys: each string's
    * pebbles sort as with `Map.empty`, and their ranks are comparable.
    */
  private def alphabetical(k: Knowledge, strings: String*): Map[String, Int] =
    strings.flatMap { s =>
      Pebbles.generate(k, Segments.wellDefined(k, Tokenizer.tokens(s)), MeasureSet.TJS, 2).map(_.key)
    }.distinct.sorted.zipWithIndex.toMap

  // ------------------------------------------------------------------ AS

  test("AS(n+1) = 0: removing nothing accumulates nothing") {
    val c = ctx(T)
    assert(c.as(c.n + 1) == 0.0)
  }

  test("AS(1) = 3 for Example 6's T (each segment's best measure sums to 1)") {
    val c = ctx(T)
    assert(math.abs(c.as(1) - 3.0) < 1e-9)
  }

  test("AS is non-increasing in i") {
    val c = ctx("coffee shop latte Helsingki")
    for (i <- 1 to c.n) assert(c.as(i) + 1e-12 >= c.as(i + 1))
  }

  test("AS takes the max measure per segment, not the sum") {
    // 'espresso' alone: J mass 1 and T mass 1 — AS(1) must be 1, not 2.
    val c = ctx("espresso")
    assert(math.abs(c.as(1) - 1.0) < 1e-9)
  }

  // ------------------------------------------------------------ U-Filter

  test("Example 6 shape: uFilter keeps the prefix where AS >= mθ") {
    val c = ctx(T)
    assert(c.m == 3)
    val i = c.uFilter(0.8)
    assert(i >= 1 && i <= c.n)
    assert(c.as(i) >= 2.4 - 1e-12)
    if (i < c.n) assert(c.as(i + 1) < 2.4)
  }

  test("uFilter with tiny θ keeps the whole list (hard to prune anything)") {
    val c = ctx(T)
    assert(c.uFilter(0.01) == c.n)
  }

  test("uFilter signature length is non-increasing in θ (Figure 3a shape)") {
    val c = ctx(T)
    val lens = Seq(0.5, 0.7, 0.8, 0.9, 1.0).map(c.uFilter)
    assert(lens == lens.sorted.reverse)
    assert(c.uFilter(1.0) >= 1, "θ=1 must keep at least one pebble (identical copies join)")
  }

  test("unsatisfiable θ gives an empty signature") {
    // a string with no knowledge: AS(1) = #tokens = m exactly; raising the
    // bar above AS(1) means no prefix can certify θ.
    val c = SignatureContext(PreparedString(Knowledge.empty, Vector("zz")), MeasureSet.S,
      2, Map.empty)
    assert(c.n == 0 && c.uFilter(0.9) == 0)
  }

  // ----------------------------------------------------------- AU-Filter

  test("τ=1 reduces both AU variants to U-Filter") {
    val c = ctx("coffee shop latte Helsingki")
    for (theta <- Seq(0.7, 0.8, 0.9)) {
      assert(c.auHeuristic(theta, 1) == c.uFilter(theta))
      assert(c.auDp(theta, 1) == c.uFilter(theta))
    }
  }

  test("signature length grows with τ (heuristic)") {
    val c = ctx(T)
    val lens = (1 to 5).map(c.auHeuristic(0.8, _))
    assert(lens == lens.sorted)
  }

  test("signature length grows with τ (DP)") {
    val c = ctx(T)
    val lens = (1 to 5).map(c.auDp(0.8, _))
    assert(lens == lens.sorted)
  }

  test("DP bound is tighter: DP prefix <= heuristic prefix") {
    check(Gen.choose(0L, 300L), n = 40) { seed =>
      val gctx = TextGen.context(TextGen.MedLite)
      val rng = new scala.util.Random(seed)
      val cls = Seq("S", "J", "T", "JS", "TS", "TJ", "TJS")(rng.nextInt(7))
      val (s, _, _) = TextGen.plantPair(gctx, cls, rng)
      val c = SignatureContext(PreparedString(gctx.knowledge, s),
        MeasureSet.TJS, 2, Map.empty)
      for (tau <- Seq(2, 3, 4); theta <- Seq(0.75, 0.85))
        assert(c.auDp(theta, tau) <= c.auHeuristic(theta, tau),
          s"seed $seed tau $tau theta $theta")
    }
  }

  test("uFilter prefix <= AU prefixes (more overlaps need more pebbles)") {
    val c = ctx(T)
    for (theta <- Seq(0.75, 0.85)) {
      assert(c.uFilter(theta) <= c.auHeuristic(theta, 3))
      assert(c.uFilter(theta) <= c.auDp(theta, 3))
    }
  }

  test("signature returns distinct keys of the prefix") {
    val c = ctx("espresso")
    val sig = c.signature(c.n)
    assert(sig.toSeq == c.ranks.toSeq.distinct)
    assert(sig.length == c.pebbles.map(_.key).distinct.length)
    assert(sig.size < c.n) // 'es' duplicate collapses
  }

  test("select dispatches to the right algorithm") {
    val c = ctx(T)
    assert(c.select(SigAlgo.UFilter, 0.8, 1).toSeq == c.signature(c.uFilter(0.8)).toSeq)
    assert(c.select(SigAlgo.AUHeuristic, 0.8, 3).toSeq == c.signature(c.auHeuristic(0.8, 3)).toSeq)
    assert(c.select(SigAlgo.AUDp, 0.8, 3).toSeq == c.signature(c.auDp(0.8, 3)).toSeq)
  }

  test("invalid τ rejected") {
    val c = ctx(T)
    intercept[IllegalArgumentException](c.auHeuristic(0.8, 0))
    intercept[IllegalArgumentException](c.auDp(0.8, -1))
  }

  // ------------------------------------------------- filter safety (Lemmas 1-2)

  test("Lemma 1: similar pairs always share a U-Filter signature pebble") {
    val gctx = TextGen.context(TextGen.MedLite)
    val pairs = TextGen.labelledPairs(gctx, nPos = 60, nNeg = 0, seed = 11L)
    val theta = 0.7
    var checked = 0
    for (p <- pairs) {
      val sim = Usim.approx(gctx.knowledge, p.s, p.t)
      if (sim >= theta) {
        val order = alphabetical(gctx.knowledge, p.s, p.t)
        val cs = SignatureContext(PreparedString(gctx.knowledge, p.s), MeasureSet.TJS, 2, order)
        val ct = SignatureContext(PreparedString(gctx.knowledge, p.t), MeasureSet.TJS, 2, order)
        val shared = cs.select(SigAlgo.UFilter, theta, 1) intersect ct.select(SigAlgo.UFilter, theta, 1)
        assert(shared.nonEmpty, s"no overlap for similar pair: '${p.s}' / '${p.t}' sim=$sim")
        checked += 1
      }
    }
    assert(checked > 20, s"only $checked similar pairs — generator too weak")
  }

  test("Lemma 2: AU signature selection loses no overlap below the inherent limit") {
    // A pair whose whole similarity rides on < τ pebbles (e.g. a
    // one-rule whole-string alias) cannot share τ keys no matter what —
    // that loss is inherent to the τ-overlap scheme, not to selection
    // (see DESIGN.md §4). The sound property is: the selected prefixes
    // retain min(τ, full-list overlap) shared keys for similar pairs.
    val gctx = TextGen.context(TextGen.MedLite)
    val pairs = TextGen.labelledPairs(gctx, nPos = 60, nNeg = 0, seed = 13L)
    val theta = 0.7
    var checked = 0
    for (p <- pairs; tau <- Seq(2, 3); algo <- Seq(SigAlgo.AUHeuristic, SigAlgo.AUDp)) {
      val sim = Usim.approx(gctx.knowledge, p.s, p.t)
      if (sim >= theta) {
        val order = alphabetical(gctx.knowledge, p.s, p.t)
        val cs = SignatureContext(PreparedString(gctx.knowledge, p.s), MeasureSet.TJS, 2, order)
        val ct = SignatureContext(PreparedString(gctx.knowledge, p.t), MeasureSet.TJS, 2, order)
        val fullShared = (cs.signature(cs.n) intersect ct.signature(ct.n)).size
        val shared = cs.select(algo, theta, tau) intersect ct.select(algo, theta, tau)
        assert(shared.size >= math.min(tau, fullShared),
          s"$algo τ=$tau: ${shared.size} < min($tau, $fullShared) for '${p.s}' / '${p.t}' sim=$sim")
        checked += 1
      }
    }
    assert(checked > 50)
  }
}
