package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.TextGen
import scala.collection.mutable

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

/** A knowledge that puts rule-side matching at its edges: rules whose
  * two sides are equal (one and two tokens), two rules between the same
  * pair of sides with different C(R) and a third the other way round, a
  * chain of rules through one side, and rule sides that are taxonomy
  * entities too. Several strings hold both sides of one rule.
  */
object RuleSideEdges {
  val k: Knowledge = new Knowledge(Vector(
    Rule(Vector("aa"), Vector("aa"), 0.6),
    Rule(Vector("bb", "cc"), Vector("bb", "cc"), 0.4),
    Rule(Vector("dd"), Vector("ee", "ff"), 0.3),
    Rule(Vector("dd"), Vector("ee", "ff"), 0.8),
    Rule(Vector("ee", "ff"), Vector("dd"), 0.5),
    Rule(Vector("gg"), Vector("hh"), 0.7),
    Rule(Vector("hh"), Vector("kk", "ll"), 0.9),
    Rule(Vector("aa"), Vector("dd"), 0.2),
  ), Taxonomy.fromEdges("root", Seq("aa" -> "root", "ee ff" -> "aa", "gg" -> "aa", "kk" -> "root",
    "kk ll" -> "kk")))
  val strings: Vector[String] = Vector("aa", "aa aa", "bb cc", "aa bb cc", "dd", "ee ff", "dd ee ff",
    "ee ff dd", "ff ee dd aa", "gg hh", "hh kk ll", "kk ll gg", "dd bb cc ee ff aa", "bb cc bb cc", "xx")
}

/** A transcription of the per-pair graph builder that preceded
  * prepared sides (gram sets as `Set[String]`, every lookup made per
  * pair) — the reference `UsimGraph.build` is compared against.
  */
object PerPairBuild {
  def build(k: Knowledge, sToks: Vector[String], tToks: Vector[String],
      measures: MeasureSet, q: Int = Measures.DefaultQ): UsimGraph = {
    require(sToks.length <= 64 && tToks.length <= 64, "strings longer than 64 tokens unsupported")
    val sSegs = Segments.wellDefined(k, sToks)
    val tSegs = Segments.wellDefined(k, tToks)
    val tBySpan: Map[Vector[String], Seq[Int]] =
      tSegs.indices.groupBy(i => tSegs(i).tokens).view.mapValues(_.toSeq).toMap
    val cand = mutable.LinkedHashSet[(Int, Int)]()
    if (measures.j) {
      val sSingles = sSegs.indices.filter(sSegs(_).length == 1)
      val tSingles = tSegs.indices.filter(tSegs(_).length == 1)
      for (si <- sSingles; ti <- tSingles) cand += ((si, ti))
    }
    if (measures.s) {
      for (si <- sSegs.indices; rid <- k.rulesTouching(sSegs(si).tokens)) {
        val r = k.rule(rid)
        val targets =
          (if (r.lhs == sSegs(si).tokens) tBySpan.getOrElse(r.rhs, Nil) else Nil) ++
            (if (r.rhs == sSegs(si).tokens) tBySpan.getOrElse(r.lhs, Nil) else Nil)
        for (ti <- targets) cand += ((si, ti))
      }
    }
    if (measures.t) {
      val sEnt = sSegs.indices.filter(i => k.taxonomy.byName.contains(sSegs(i).tokens))
      val tEnt = tSegs.indices.filter(i => k.taxonomy.byName.contains(tSegs(i).tokens))
      for (si <- sEnt; ti <- tEnt) cand += ((si, ti))
    }
    def mask(seg: Segment): Long = ((1L << seg.length) - 1L) << seg.start
    val kept = cand.toVector.flatMap { case (si, ti) =>
      var w = 0.0
      if (measures.j)
        w = Measures.jaccard(Tokenizer.qgrams(sSegs(si).text, q), Tokenizer.qgrams(tSegs(ti).text, q))
      if (measures.s) w = math.max(w, Measures.synonym(k, sSegs(si).tokens, tSegs(ti).tokens))
      if (measures.t) w = math.max(w, Measures.taxonomy(k, sSegs(si).tokens, tSegs(ti).tokens))
      if (w > 0.0) Some((w, sSegs(si), tSegs(ti))) else None
    }
    new UsimGraph(sToks.length, tToks.length, kept.map(_._1).toArray,
      kept.map(v => mask(v._2)).toArray, kept.map(v => mask(v._3)).toArray,
      kept.map(_._2).toArray, kept.map(_._3).toArray)
  }

  /** Everything a graph holds, weights as raw bits, in vertex order. */
  def dump(g: UsimGraph): (Int, Int, Seq[(Long, Long, Long, Segment, Segment)]) =
    (g.sLen, g.tLen, g.weights.indices.map(v => (java.lang.Double.doubleToRawLongBits(g.weights(v)),
      g.maskS(v), g.maskT(v), g.sSegs(v), g.tSegs(v))))
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
    assert(Usim.graph(med, Tokenizer.text(sToks), Tokenizer.text(tToks), MeasureSet.TJS).sSegs.exists(_.length > 1))
    val gj = Usim.graph(med, Tokenizer.text(sToks), Tokenizer.text(tToks), MeasureSet.J)
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

  test("graphs from prepared sides equal the per-pair build, vertex order included") {
    import PerPairBuild.dump
    def toks(s: String) = Tokenizer.tokens(s)
    def check(k: Knowledge, left: IndexedSeq[String], right: IndexedSeq[String],
        pairs: Iterator[(Int, Int)], ms: Seq[MeasureSet]): Int = {
      val grams = new UsimGraph.GramTable
      val sl = left.map(s => UsimGraph.side(PreparedString(k, toks(s)), Measures.DefaultQ, grams))
      val sr = if (right eq left) sl
               else right.map(s => UsimGraph.side(PreparedString(k, toks(s)), Measures.DefaultQ, grams))
      var n = 0
      for ((i, j) <- pairs; m <- ms) {
        val want = dump(PerPairBuild.build(k, toks(left(i)), toks(right(j)), m))
        assert(dump(UsimGraph.build(k, sl(i), sr(j), m)) == want, s"${left(i)} | ${right(j)} ${m.label}")
        n += 1
      }
      n
    }
    def allPairs(n: Int, m: Int) = for (i <- (0 until n).iterator; j <- (0 until m).iterator) yield (i, j)
    var graphs = 0
    for (kind <- Seq(TextGen.MedLite, TextGen.WikiLite); seed <- Seq(3L, 31L)) {
      val ctx = TextGen.context(kind, seed)
      val strs = TextGen.joinDataset(ctx, 50, seed).strings
      graphs += check(ctx.knowledge, strs, strs, allPairs(50, 50).filter(p => p._1 < p._2), MeasureSet.all)
      // two collections whose sides share one gram table
      val other = TextGen.joinDataset(ctx, 20, seed + 1).strings
      graphs += check(ctx.knowledge, strs.take(20), other, allPairs(20, 20), Seq(MeasureSet.TJS))
    }
    val f1 = Vector("coffee shop latte", "cafe espresso", "apple cake gateau",
      "cake latte coffee drinks", "food wikipedia", "latte latte cake cake")
    graphs += check(Knowledge.figure1, f1, f1, allPairs(f1.length, f1.length), MeasureSet.all)
    val edges = RuleSideEdges.strings
    graphs += check(RuleSideEdges.k, edges, edges, allPairs(edges.length, edges.length), MeasureSet.all)
    for (kk <- 3 to 10; seed <- 0L until 10L) {
      val (k, s, t) = TextGen.conflictInstance(kk, seed)
      graphs += check(k, Vector(s), Vector(t), Iterator((0, 0)), MeasureSet.all)
    }
    assert(graphs > 30000)
  }

  test("sides from two gram tables are rejected") {
    val k = Knowledge.figure1
    val a = UsimGraph.side(PreparedString(k, "latte cake"), Measures.DefaultQ, new UsimGraph.GramTable)
    val b = UsimGraph.side(PreparedString(k, "espresso"), Measures.DefaultQ, new UsimGraph.GramTable)
    intercept[IllegalArgumentException](UsimGraph.build(k, a, b, MeasureSet.TJS))
  }
}
