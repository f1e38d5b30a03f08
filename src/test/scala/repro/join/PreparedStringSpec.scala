package repro.join

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.TextGen

/** A string's pebbles, order keys, signatures and verifier side built
  * from one `PreparedString` equal what the per-reader preparation they
  * replaced gave: each reader tokenising the string, enumerating its
  * segments and looking up their rules and taxonomy nodes itself. That
  * preparation is transcribed here as `Reference`.
  */
class PreparedStringSpec extends AnyFunSuite {

  private object Reference {

    /** The pebble generator over `Segments.wellDefined` of the tokens. */
    def pebbles(k: Knowledge, toks: Vector[String], measures: MeasureSet, q: Int): Vector[PebbleInstance] = {
      val segments = Segments.wellDefined(k, toks)
      val out = Vector.newBuilder[PebbleInstance]
      var si = 0
      while (si < segments.length) {
        val seg = segments(si)
        if (measures.j) {
          val grams = Tokenizer.qgramOccurrences(seg.text, q)
          val w = 1.0 / grams.length
          grams.foreach(g => out += PebbleInstance("g:" + g, w, si, 'J'))
        }
        if (measures.s) {
          for (rid <- k.rulesTouching(seg.tokens)) {
            val r = k.rule(rid)
            out += PebbleInstance("s:" + Tokenizer.text(r.lhs), r.c, si, 'S')
          }
        }
        if (measures.t) {
          for (n <- k.taxonomy.node(seg.tokens)) {
            val w = 1.0 / k.taxonomy.depth(n)
            k.taxonomy.ancestors(n).foreach(a => out += PebbleInstance("t:" + a, w, si, 'T'))
          }
        }
        si += 1
      }
      out.result()
    }

    /** B and its ranks: pebbles sorted by (rank, generation index). */
    def sorted(gen: Vector[PebbleInstance], order: Map[String, Int]): (Vector[PebbleInstance], Seq[Int]) = {
      val r = Pebbles.ranksOf(gen.map(_.key), order)
      val byRank = gen.indices.sortBy(p => (r(p), p))
      (byRank.map(gen).toVector, byRank.map(r))
    }

    /** AS(i) for i in 1..n+1 over B (Def 4), as the suffix sweep sums it. */
    def as(b: Vector[PebbleInstance]): Seq[Double] = {
      val groupSum = scala.collection.mutable.HashMap.empty[(Int, Char), Double]
      val segMax = scala.collection.mutable.HashMap.empty[Int, Double]
      var acc = 0.0
      val out = Array.fill(b.length + 2)(0.0)
      for (i <- b.length to 1 by -1) {
        val p = b(i - 1)
        val s = groupSum.getOrElse((p.segIdx, p.measure), 0.0) + p.weight
        groupSum((p.segIdx, p.measure)) = s
        val prevMax = segMax.getOrElse(p.segIdx, 0.0)
        if (s > prevMax) { acc += s - prevMax; segMax(p.segIdx) = s }
        out(i) = acc
      }
      out.toSeq.drop(1)
    }

    /** The verifier side's per-segment fields. */
    final case class Side(
        len: Int,
        segs: Seq[Segment],
        gramIds: Seq[Seq[Int]],
        nodes: Seq[Int],
        paths: Seq[Seq[Int]],
        ruleSides: Seq[Seq[Int]],
        gramUnion: Seq[Int],
        minParts: Int,
    )

    def side(k: Knowledge, toks: Vector[String], q: Int, grams: UsimGraph.GramTable): Side = {
      val segs = Segments.wellDefined(k, toks).toArray
      val nodes = segs.map(s => k.taxonomy.byName.getOrElse(s.tokens, -1))
      val gramIds = segs.map(s => grams.ids(s.text, q))
      val fewest = Array.fill(toks.length + 1)(toks.length)
      fewest(0) = 0
      for (seg <- segs) fewest(seg.end) = math.min(fewest(seg.end), fewest(seg.start) + 1)
      Side(toks.length, segs.toSeq, gramIds.map(_.toSeq).toSeq, nodes.toSeq,
        nodes.map(n => if (n < 0) Seq.empty[Int] else k.taxonomy.ancestors(n).reverse).toSeq,
        segs.map(s => k.rulesTouching(s.tokens).flatMap { rid =>
          val r = k.rule(rid)
          Seq(false, true).filter(rhs => (if (rhs) r.rhs else r.lhs) == s.tokens)
            .map(rhs => 2 * rid + (if (rhs) 1 else 0))
        }).toSeq,
        gramIds.flatten.distinct.sorted.toSeq, fewest(toks.length))
    }
  }

  private def sideOf(s: UsimGraph.Side): Reference.Side =
    Reference.Side(s.len, s.prepared.segments, s.gramIds.map(_.toSeq).toSeq, s.prepared.nodes.toSeq,
      s.prepared.paths.map(_.toSeq).toSeq, s.prepared.ruleSides.map(_.toSeq).toSeq,
      s.gramUnion.toSeq, s.minParts)

  private val measureSets = Seq(MeasureSet.TJS, MeasureSet.J, MeasureSet.T)
  private val q = 2

  /** Checks every string of `strings` under each measure set and the
    * collection's order; returns how many (string, measure set) cases ran.
    */
  private def check(k: Knowledge, strings: IndexedSeq[String], what: String): Int = {
    var cases = 0
    for (ms <- measureSets) {
      val refGen = strings.map(s => Reference.pebbles(k, Tokenizer.tokens(s), ms, q))
      val order = LocalJoin.buildOrder(k, strings, ms, q)
      assert(order == Pebbles.keyOrder(refGen.iterator.map(_.map(_.key))), s"$what ${ms.label} order")
      val (grams, refGrams) = (new UsimGraph.GramTable, new UsimGraph.GramTable)
      for ((s, i) <- strings.zipWithIndex) {
        val clue = s"$what ${ms.label} '$s'"
        val toks = Tokenizer.tokens(s)
        val p = PreparedString(k, s)
        assert(p.tokens == toks, clue)
        val ctx = SignatureContext(p, ms, q, order)
        val (b, ranks) = Reference.sorted(refGen(i), order)
        assert(Pebbles.generate(k, Segments.wellDefined(k, toks), ms, q) == refGen(i), clue)
        assert(ctx.pebbles == b, clue)
        assert(ctx.ranks.toSeq == ranks, clue)
        assert(ctx.m == MinPartition.size(Segments.wellDefined(k, toks), toks.length), clue)
        assert((1 to ctx.n + 1).map(ctx.as) == Reference.as(b), clue)
        val ref = new SignatureContext(p, refGen(i), order)
        for (algo <- SigAlgo.all; theta <- Seq(0.75, 0.95); tau <- Seq(1, 2, 4, 6, 8))
          assert(ctx.select(algo, theta, tau).toSeq == ref.select(algo, theta, tau).toSeq,
            s"$clue ${algo.label} θ=$theta τ=$tau")
        assert(sideOf(UsimGraph.side(p, q, grams)) == Reference.side(k, toks, q, refGrams), clue)
        cases += 1
      }
    }
    cases
  }

  test("prepared strings give the transcribed pebbles, signatures and sides") {
    var cases = 0
    for ((kind, seed) <- Seq(TextGen.MedLite, TextGen.WikiLite).flatMap(k => Seq(k -> 3L, k -> 31L))) {
      val ctx = TextGen.context(kind, seed)
      cases += check(ctx.knowledge, TextGen.joinDataset(ctx, 80, seed).strings, s"${kind.name} seed $seed")
    }
    val figure1 = Vector("coffee shop latte Helsingki", "espresso cafe Helsinki", "apple cake gateau",
      "cake latte coffee drinks", "", "   ", "food wikipedia cafe coffee shop")
    cases += check(Knowledge.figure1, figure1, "Figure 1")
    cases += check(Knowledge.empty, Vector("xyzabababab", "xyzab", "", " \t "), "no knowledge")
    cases += check(RuleSideEdges.k, RuleSideEdges.strings, "rule-side edges")
    assert(cases == 3 * (4 * 80 + 7 + 4 + RuleSideEdges.strings.length))
  }
}
