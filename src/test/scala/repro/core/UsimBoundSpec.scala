package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.TextGen

/** `UsimBound` never falls below the similarity verification computes:
  * neither Algorithm 1's nor, where the graph is small enough, exact USIM.
  */
class UsimBoundSpec extends AnyFunSuite {

  private val measureSets =
    Seq(MeasureSet.J, MeasureSet.S, MeasureSet.T, MeasureSet.TJ, MeasureSet.JS, MeasureSet.TJS)

  /** The bound of (s, t), and the approximate and exact (None past the
    * vertex cap) USIM of the graph built from the same sides.
    */
  private def sims(k: Knowledge, s: String, t: String, m: MeasureSet,
      q: Int = Measures.DefaultQ): (Double, Double, Option[Double]) = {
    val grams = new UsimGraph.GramTable
    val sideS = UsimGraph.side(PreparedString(k, Tokenizer.tokens(s)), q, grams)
    val sideT = UsimGraph.side(PreparedString(k, Tokenizer.tokens(t)), q, grams)
    val g = UsimGraph.build(k, sideS, sideT, m)
    val exact = if (g.size <= Usim.ExactVertexCap) Some(Usim.exactOnGraph(g)) else None
    (new UsimBound(k, m)(sideS, sideT), Usim.approxOnGraph(g)._1, exact)
  }

  /** Asserts bound ≥ approx and bound ≥ exact, up to the slack the join
    * prunes with, both ways round; returns the bound.
    */
  private def holds(k: Knowledge, s: String, t: String, m: MeasureSet,
      q: Int = Measures.DefaultQ): Double = {
    val out = for ((a, b) <- Seq((s, t), (t, s))) yield {
      val (bound, approx, exact) = sims(k, a, b, m, q)
      val where = s"${m.label} q=$q: '$a' / '$b'"
      assert(bound >= approx - UsimBound.Slack, s"$where: bound $bound < approx $approx")
      for (e <- exact) assert(bound >= e - UsimBound.Slack, s"$where: bound $bound < exact $e")
      assert(bound <= 1.0 + 1e-12, s"$where: bound $bound > 1")
      bound
    }
    out.head
  }

  private def collection(kind: TextGen.Kind, n: Int, seed: Long): (Knowledge, Vector[String]) = {
    val ctx = TextGen.context(kind, seed)
    (ctx.knowledge, TextGen.joinDataset(ctx, n, seed).strings)
  }

  test("Figure 1 and Figure 2 pairs") {
    val k = Knowledge.figure1
    val s = "coffee shop latte Helsingki"
    val t = "espresso cafe Helsinki"
    for (m <- measureSets; q <- Seq(1, 2)) holds(k, s, t, m, q)
    // Figure 1's USIM is (1 + 0.8 + 0.875)/3 at q=1; the bound sits above it
    assert(holds(k, s, t, MeasureSet.TJS, q = 1) >= (1.0 + 0.8 + 0.875) / 3 - UsimBound.Slack)
    for (m <- measureSets) holds(Figure2.k, Figure2.s, Figure2.t, m)
  }

  test("a segment that repeats a gram: exact USIM 0.8, bound at least that") {
    val b = holds(Knowledge.empty, "xyzabababab", "xyzab", MeasureSet.J)
    assert(b >= 0.8 - UsimBound.Slack)
    assert(math.abs(Usim.approx(Knowledge.empty, "xyzabababab", "xyzab", MeasureSet.J) - 0.8) < 1e-12)
  }

  test("tokens that repeat grams") {
    val words = Vector("mississippi", "espresso", "missisippi", "espreso", "ssi", "ss", "abababab", "abab")
    val rng = new scala.util.Random(7)
    def phrase(): String = Vector.fill(1 + rng.nextInt(4))(words(rng.nextInt(words.length))).mkString(" ")
    for (_ <- 0 until 60; m <- Seq(MeasureSet.J, MeasureSet.TJS)) holds(Knowledge.figure1, phrase(), phrase(), m)
  }

  test("the denominator counts minParts(T): a token against its three-fold repeat bounds to 1/3") {
    // S against T alone gives 1 / max(1, minParts(T)) = 1/3; without the
    // minParts term both directions would give 1
    val b = holds(Knowledge.empty, "abc", "abc abc abc", MeasureSet.J)
    assert(math.abs(b - 1.0 / 3) < 1e-12)
    // T's multi-token rule side makes minParts(T) = 2 of its 3 tokens
    val k = new Knowledge(Vector(Rule(Vector("bb", "cc"), Vector("zz"), 0.5)), Knowledge.empty.taxonomy)
    assert(math.abs(holds(k, "aa", "aa bb cc", MeasureSet.J) - 1.0 / 2) < 1e-12)
  }

  test("empty and whitespace-only strings bound to 0") {
    for (e <- Seq("", "   ", "\t \n"); o <- Seq("", " ", "coffee shop", "latte"); m <- measureSets)
      assert(holds(Knowledge.figure1, e, o, m) == 0.0)
  }

  test("64-token strings") {
    for (kind <- Seq(TextGen.MedLite, TextGen.WikiLite)) {
      val (k, strings) = collection(kind, 200, 11L)
      val toks = strings.flatMap(Tokenizer.tokens)
      val rng = new scala.util.Random(13)
      def long(): String = Vector.fill(64)(toks(rng.nextInt(toks.length))).mkString(" ")
      for (_ <- 0 until 4; m <- Seq(MeasureSet.J, MeasureSet.TJS)) {
        val s = long()
        holds(k, s, long(), m)
        holds(k, s, s, m)
        holds(k, s, strings(rng.nextInt(strings.length)), m)
      }
    }
  }

  test("property: generated MED-lite and WIKI-lite pairs, every measure set") {
    for (kind <- Seq(TextGen.MedLite, TextGen.WikiLite); seed <- Seq(3L, 31L)) {
      val ctx = TextGen.context(kind, seed)
      val labelled = TextGen.labelledPairs(ctx, nPos = 40, nNeg = 40, seed).map(p => (p.s, p.t))
      val strings = TextGen.joinDataset(ctx, 40, seed).strings
      val collected = for (i <- strings.indices; j <- i + 1 until strings.length) yield (strings(i), strings(j))
      for ((s, t) <- labelled ++ collected; m <- measureSets) holds(ctx.knowledge, s, t, m)
    }
  }

  test("property: rule-side edge cases (equal sides, two C(R) for one pair of sides, both sides in one string)") {
    val strings = RuleSideEdges.strings
    for (i <- strings.indices; j <- i until strings.length; m <- measureSets)
      holds(RuleSideEdges.k, strings(i), strings(j), m)
  }

  test("property: Table 9 conflict instances (multi-token rules that overlap)") {
    for (kk <- 2 to 6; seed <- 0L until 30L) {
      val (k, s, t) = TextGen.conflictInstance(kk, seed)
      for (m <- Seq(MeasureSet.S, MeasureSet.JS)) holds(k, s, t, m)
    }
  }

  test("the bound is not vacuous: most MED-lite pairs bound below θ = 0.75") {
    val (k, strings) = collection(TextGen.MedLite, 60, 3L)
    val bounds = for (i <- strings.indices; j <- i + 1 until strings.length)
      yield holds(k, strings(i), strings(j), MeasureSet.TJS)
    assert(bounds.count(_ < 0.75) > bounds.length * 9 / 10)
  }
}
