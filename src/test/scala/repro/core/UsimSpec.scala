package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropHelpers
import repro.data.TextGen

class UsimSpec extends AnyFunSuite with PropHelpers {
  val k: Knowledge = Knowledge.figure1
  val S = "coffee shop latte Helsingki"
  val T = "espresso cafe Helsinki"

  /** Exact USIM between two raw strings (small pairs only). */
  private def exact(
      k: Knowledge,
      s: String,
      t: String,
      measures: MeasureSet = MeasureSet.TJS,
      q: Int = Measures.DefaultQ,
  ): Double = Usim.exactOnGraph(Usim.graph(k, s, t, measures, q))

  test("Figure 1 headline: USIM = (1 + 0.8 + 0.875)/3 = 0.892 with q=1") {
    val sim = exact(k, S, T, MeasureSet.TJS, q = 1)
    assert(math.abs(sim - (1.0 + 0.8 + 0.875) / 3) < 1e-9)
  }

  test("Figure 1 with q=2 (Example 2 gram counting): (1 + 0.8 + 2/3)/3") {
    val sim = exact(k, S, T, MeasureSet.TJS, q = 2)
    assert(math.abs(sim - (1.0 + 0.8 + 2.0 / 3) / 3) < 1e-9)
  }

  test("approximation matches exact on the Figure 1 pair") {
    val a = Usim.approx(k, S, T, MeasureSet.TJS, q = 1)
    val e = exact(k, S, T, MeasureSet.TJS, q = 1)
    assert(math.abs(a - e) < 1e-9)
  }

  test("Example 3: the 4-segment partition scores lower") {
    val toksS = Tokenizer.tokens(S)
    val toksT = Tokenizer.tokens(T)
    val ps4 = Seq(Segment(0, 1, Vector("coffee")), Segment(1, 2, Vector("shop")),
      Segment(2, 3, Vector("latte")), Segment(3, 4, Vector("helsingki")))
    val pt = Seq(Segment(0, 1, Vector("espresso")), Segment(1, 2, Vector("cafe")),
      Segment(2, 3, Vector("helsinki")))
    val ps3 = Seq(Segment(0, 2, Vector("coffee", "shop")),
      Segment(2, 3, Vector("latte")), Segment(3, 4, Vector("helsingki")))
    val s4 = Usim.simForPartitions(k, ps4, pt, MeasureSet.TJS, q = 1)
    val s3 = Usim.simForPartitions(k, ps3, pt, MeasureSet.TJS, q = 1)
    assert(s3 > s4)
    assert(math.abs(s3 - (1.0 + 0.8 + 0.875) / 3) < 1e-9)
    assert(Segments.isPartition(ps4, toksS.length) && Segments.isPartition(pt, toksT.length))
  }

  test("Example 5: approximation on Figure 2 returns 0.13") {
    val sim = Usim.approx(Figure2.k, Figure2.s, Figure2.t, MeasureSet.S)
    assert(math.abs(sim - 0.13) < 1e-9)
  }

  test("Example 5: exact on Figure 2 is also 0.13") {
    val sim = exact(Figure2.k, Figure2.s, Figure2.t, MeasureSet.S)
    assert(math.abs(sim - 0.13) < 1e-9)
  }

  test("Theorem 1 reduction instance: 2-vertex graph with an edge gives 1/3") {
    val rules = Vector(
      Rule(Vector("m1", "p1"), Vector("n1"), 1.0),
      Rule(Vector("m2", "p1"), Vector("n2"), 1.0))
    val kb = new Knowledge(rules, Knowledge.empty.taxonomy)
    val sim = exact(kb, "m1 m2 p1", "n1 n2 q1", MeasureSet.S)
    assert(math.abs(sim - 1.0 / 3) < 1e-9)
  }

  test("identical strings have USIM 1") {
    assert(exact(k, "coffee shop", "coffee shop") == 1.0)
    assert(Usim.approx(k, "latte cake", "latte cake") == 1.0)
  }

  test("disjoint unrelated strings have USIM 0") {
    assert(exact(Knowledge.empty, "aa bb", "zz yy") == 0.0)
  }

  test("empty vs anything is 0") {
    assert(Usim.approx(k, "", "coffee") == 0.0)
    assert(Usim.approx(k, "", "") == 0.0)
  }

  test("exact is symmetric") {
    val pairs = Seq(
      (S, T), ("cake", "gateau"), ("apple cake latte", "cake espresso"))
    for ((a, b) <- pairs)
      assert(math.abs(exact(k, a, b, q = 1) - exact(k, b, a, q = 1)) < 1e-9)
  }

  test("exact refuses oversized graphs (with multi-token vertices)") {
    // all-singles graphs take the assignment fast path at any size, so
    // the cap is about graphs with real MIS structure: 6×6 span pairs,
    // each a rule, gives 36 > ExactVertexCap vertices.
    val sT = (0 to 6).map(i => s"aa$i").toVector
    val tT = (0 to 6).map(i => s"bb$i").toVector
    val rules = (for (i <- 0 until 6; j <- 0 until 6)
      yield Rule(sT.slice(i, i + 2), tT.slice(j, j + 2), 0.5)).toVector
    val kb = new Knowledge(rules, Knowledge.empty.taxonomy)
    intercept[IllegalArgumentException](
      exact(kb, sT.mkString(" "), tT.mkString(" "), MeasureSet.S))
  }

  test("oversized all-singles graphs are solved exactly by the assignment fast path") {
    val words = (1 to 10).map(i => s"wo${i}rd").mkString(" ")
    assert(math.abs(exact(Knowledge.empty, words, words) - 1.0) < 1e-9)
  }

  test("measure subsets never beat the full TJS measure (exact)") {
    for (m <- MeasureSet.all)
      assert(exact(k, S, T, m, q = 1) <= exact(k, S, T, MeasureSet.TJS, q = 1) + 1e-9)
  }

  test("msim special case: single-segment strings reduce to msim") {
    // "cake" vs "apple cake": best partition keeps T as the entity
    val sim = exact(k, "cake", "apple cake")
    assert(math.abs(sim - 0.75) < 1e-9)
  }

  test("property: approx <= exact <= 1 and both >= 0 on random instances") {
    check(Gen.choose(0L, 400L), n = 40) { seed =>
      val (kb, s, t) = TextGen.conflictInstance(k = 3, seed)
      val e = Usim.exactOnGraph(Usim.graph(kb, s, t, MeasureSet.S))
      val a = Usim.approx(kb, s, t, MeasureSet.S)
      assert(e >= a - 1e-9, s"seed $seed approx $a beats exact $e")
      assert(a >= 0 && e <= 1.0 + 1e-9)
    }
  }

  test("property: approximation achieves at least 40% of exact on conflict instances") {
    // Theorem 2's worst case is (t/(t-1))·(k²−1)/2; in practice Table 9
    // reports >= 0.5 almost everywhere for k=3.
    check(Gen.choose(0L, 400L), n = 40) { seed =>
      val (kb, s, t) = TextGen.conflictInstance(k = 3, seed)
      val e = Usim.exactOnGraph(Usim.graph(kb, s, t, MeasureSet.S))
      val a = Usim.approx(kb, s, t, MeasureSet.S)
      if (e > 1e-9) assert(a / e >= 0.4, s"seed $seed ratio ${a / e}")
    }
  }

  test("getSim of approx solution equals reported similarity") {
    val g = Usim.graph(k, S, T, MeasureSet.TJS, q = 1)
    val (sim, sel) = Usim.approxOnGraph(g)
    assert(math.abs(sim - g.getSim(sel)) < 1e-12)
    assert(g.isIndependent(sel.toSeq))
  }
}
