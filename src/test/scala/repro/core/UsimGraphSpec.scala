package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Fixtures around the paper's Figure 2 (Example 4/5) instance. */
object Figure2 {
  val rules: Vector[Rule] = Vector(
    Rule(Vector("b", "c", "d"), Vector("f"), 0.3),      // R1
    Rule(Vector("b", "c"), Vector("f", "g"), 0.13),     // R2
    Rule(Vector("c", "d"), Vector("f", "g"), 0.22),     // R3
    Rule(Vector("a"), Vector("g"), 0.09),               // R4
    Rule(Vector("d"), Vector("h"), 0.27),               // R5
    Rule(Vector("z", "e", "f"), Vector("g"), 0.5),      // R6 — not applicable
  )
  val k = new Knowledge(rules, Knowledge.empty.taxonomy)
  val s = "a b c d e"
  val t = "f g h"
  def graph: UsimGraph = Usim.graph(k, s, t, MeasureSet.S)
}

class UsimGraphSpec extends AnyFunSuite {

  test("Figure 2: exactly 5 vertices (R6 does not appear)") {
    val g = Figure2.graph
    assert(g.size == 5)
    assert(g.weights.sorted.toVector == Vector(0.09, 0.13, 0.22, 0.27, 0.3))
  }

  test("Figure 2: R3 and R5 conflict (share token d)") {
    val g = Figure2.graph
    val r3 = g.weights.indexOf(0.22)
    val r5 = g.weights.indexOf(0.27)
    assert(g.conflict(r3, r5))
  }

  test("Figure 2: R1 and R4 are independent") {
    val g = Figure2.graph
    val r1 = g.weights.indexOf(0.3)
    val r4 = g.weights.indexOf(0.09)
    assert(!g.conflict(r1, r4))
  }

  test("Figure 2: getSim({R2, R5}) = 0.4/4 = 0.1 (Example 5)") {
    val g = Figure2.graph
    val r2 = g.weights.indexOf(0.13)
    val r5 = g.weights.indexOf(0.27)
    assert(math.abs(g.getSim(Seq(r2, r5)) - 0.1) < 1e-12)
  }

  test("Figure 2: getSim({R1, R4}) = 0.39/3 = 0.13 (Example 5)") {
    val g = Figure2.graph
    val r1 = g.weights.indexOf(0.3)
    val r4 = g.weights.indexOf(0.09)
    assert(math.abs(g.getSim(Seq(r1, r4)) - 0.13) < 1e-12)
  }

  test("getSim of the empty set is 0") {
    assert(Figure2.graph.getSim(Nil) == 0.0)
  }

  test("isIndependent detects conflicts") {
    val g = Figure2.graph
    val r3 = g.weights.indexOf(0.22)
    val r5 = g.weights.indexOf(0.27)
    val r4 = g.weights.indexOf(0.09)
    assert(g.isIndependent(Seq(r4, r5)))
    assert(!g.isIndependent(Seq(r3, r5)))
  }

  test("jaccard vertices appear only for single-token pairs with gram overlap") {
    val k = Knowledge.empty
    val g = Usim.graph(k, "abc xyz", "abd pqr", MeasureSet.J)
    // only (abc, abd) share a gram ("ab")
    assert(g.size == 1)
    assert(g.sSegs(0).tokens == Vector("abc") && g.tSegs(0).tokens == Vector("abd"))

    // MED-lite knowledge: both strings hold multi-token rule sides, yet a
    // J-only graph has exactly the single-token pairs with gram overlap,
    // in token order.
    val med = repro.data.TextGen.context(repro.data.TextGen.MedLite).knowledge
    val rule = med.rules.find(r => r.lhs.length > 1 && r.rhs.length > 1).get
    val sToks = rule.lhs ++ Vector("alpha")
    val tToks = Vector("alpine") ++ rule.rhs
    assert(Segments.wellDefined(med, sToks).exists(_.length > 1))
    assert(Segments.wellDefined(med, tToks).exists(_.length > 1))
    assert(UsimGraph.build(med, sToks, tToks, MeasureSet.TJS).sSegs.exists(_.length > 1))
    val gj = UsimGraph.build(med, sToks, tToks, MeasureSet.J)
    val want = for {
      i <- sToks.indices; j <- tToks.indices
      w = Measures.jaccard(sToks(i), tToks(j)) if w > 0.0
    } yield (i, j, w)
    assert(gj.sSegs.forall(_.length == 1) && gj.tSegs.forall(_.length == 1))
    assert(gj.sSegs.indices.map(v => (gj.sSegs(v).start, gj.tSegs(v).start, gj.weights(v))) == want)
    assert(gj.sSegs.indices.forall(v =>
      gj.maskS(v) == 1L << gj.sSegs(v).start && gj.maskT(v) == 1L << gj.tSegs(v).start))
  }

  test("measure restriction drops synonym vertices") {
    val g = Usim.graph(Figure2.k, Figure2.s, Figure2.t, MeasureSet.J)
    assert(g.size == 0) // single letters share no 2-grams
  }

  test("vertex weight is the max over applicable measures") {
    // "cake" vs "gateau": synonym rule C=1 beats gram jaccard
    val k = Knowledge.figure1
    val g = Usim.graph(k, "cake", "gateau", MeasureSet.TJS)
    assert(g.size == 1 && g.weights(0) == 1.0)
  }

  test("strings over 64 tokens are rejected") {
    val long = Vector.fill(65)("tok").mkString(" ")
    for (m <- Seq(MeasureSet.J, MeasureSet.TJS))
      intercept[IllegalArgumentException](Usim.graph(Knowledge.empty, long, "tok", m))
  }
}
