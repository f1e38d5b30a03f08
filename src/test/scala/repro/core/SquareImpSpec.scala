package repro.core

import scala.collection.mutable
import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropHelpers
import repro.data.TextGen
import repro.join.{LocalJoin, SigAlgo}

class SquareImpSpec extends AnyFunSuite with PropHelpers {

  /** Random conflict-graph instances via random synonym-rule knowledge. */
  private def randomGraph(seed: Long): UsimGraph = {
    val rng = new scala.util.Random(seed)
    val sToks = Vector.tabulate(4 + rng.nextInt(3))(i => s"s$i")
    val tToks = Vector.tabulate(4 + rng.nextInt(3))(i => s"t$i")
    val rules = Vector.fill(3 + rng.nextInt(5)) {
      val a = rng.nextInt(sToks.length)
      val b = a + 1 + rng.nextInt(math.min(3, sToks.length - a))
      val c = rng.nextInt(tToks.length)
      val d = c + 1 + rng.nextInt(math.min(3, tToks.length - c))
      Rule(sToks.slice(a, b), tToks.slice(c, d), 0.1 + 0.9 * rng.nextDouble())
    }.distinctBy(r => (r.lhs, r.rhs))
    val k = new Knowledge(rules, Knowledge.empty.taxonomy)
    Usim.graph(k, Tokenizer.text(sToks), Tokenizer.text(tToks), MeasureSet.S)
  }

  private def bruteMaxWeightIS(g: UsimGraph): Double = {
    require(g.size <= 16)
    var best = 0.0
    for (mask <- 0 until (1 << g.size)) {
      val sel = (0 until g.size).filter(i => (mask & (1 << i)) != 0)
      if (g.isIndependent(sel)) {
        val w = sel.map(g.weights).sum
        if (w > best) best = w
      }
    }
    best
  }

  /** SquareImp as a direct transcription: N(v, A) is a list scan of A
    * for each move, and a pair removes the distinct union N(v1, A) ++
    * N(v2, A), its squares summed in that order.
    */
  private def referenceSolve(g: UsimGraph): Set[Int] = {
    def neighboursIn(v: Int, a: Iterable[Int]): List[Int] =
      a.iterator.filter(u => u == v || g.conflict(u, v)).toList
    def sq(i: Int): Double = g.weights(i) * g.weights(i)
    val order = g.weights.indices.sortBy(i => (-g.weights(i), i))
    val a = mutable.LinkedHashSet[Int]()
    var ms = 0L; var mt = 0L
    for (i <- order) {
      if ((ms & g.maskS(i)) == 0L && (mt & g.maskT(i)) == 0L) {
        a += i; ms |= g.maskS(i); mt |= g.maskT(i)
      }
    }
    val n = g.size
    var improved = true
    var passes = 0
    while (improved && passes < SquareImp.MaxPasses) {
      improved = false
      passes += 1
      for (v <- 0 until n if !a.contains(v)) {
        val removed = neighboursIn(v, a)
        if (sq(v) > removed.iterator.map(sq).sum + 1e-12) {
          a --= removed; a += v
          improved = true
        }
      }
      if (n <= SquareImp.PairTalonLimit) {
        for (v1 <- 0 until n if !a.contains(v1); v2 <- v1 + 1 until n) {
          if (!a.contains(v2) && !g.conflict(v1, v2)) {
            val removed = (neighboursIn(v1, a) ++ neighboursIn(v2, a)).distinct
            if (sq(v1) + sq(v2) > removed.iterator.map(sq).sum + 1e-12) {
              a --= removed; a += v1; a += v2
              improved = true
            }
          }
        }
      }
    }
    ms = 0L; mt = 0L
    for (i <- a) { ms |= g.maskS(i); mt |= g.maskT(i) }
    for (i <- order) {
      if (!a.contains(i) && (ms & g.maskS(i)) == 0L && (mt & g.maskT(i)) == 0L) {
        a += i; ms |= g.maskS(i); mt |= g.maskT(i)
      }
    }
    a.toSet
  }

  /** A conflict graph built by hand: vertex (a, b, c, d, w) pairs S
    * tokens [a, b) with T tokens [c, d) at weight w.
    */
  private def handGraph(sLen: Int, tLen: Int, vs: Seq[(Int, Int, Int, Int, Double)]): UsimGraph = {
    def mask(from: Int, until: Int): Long = ((1L << (until - from)) - 1L) << from
    def seg(from: Int, until: Int, p: String) =
      Segment(from, until, Vector.tabulate(until - from)(i => s"$p${from + i}"))
    new UsimGraph(sLen, tLen, vs.map(_._5).toArray,
      vs.map(v => mask(v._1, v._2)).toArray, vs.map(v => mask(v._3, v._4)).toArray,
      vs.map(v => seg(v._1, v._2, "s")).toArray, vs.map(v => seg(v._3, v._4, "t")).toArray)
  }

  /** Two graphs whose one claw move sits on its acceptance boundary. The
    * greedy seed is A = (u, m2, m3, m1); talons v1 and v2 remove
    * N(v1, A) = (u, m1) and N(v2, A) = (u, m2, m3). Their squared weights
    * sum to exactly the removed squares, summed as N(v1, A) then the rest
    * of N(v2, A), plus 1e-12 — or to the next double above it. For these
    * weights every other summation order rounds one ulp higher, which
    * turns the second graph's accepted move into a rejected one.
    */
  private def boundaryGraphs: Seq[UsimGraph] = {
    val (u, m1, m2, m3, v1) = (0.9, 0.25, 0.3, 0.28, 0.71)
    val edge = u * u + m1 * m1 + m2 * m2 + m3 * m3 + 1e-12
    for (target <- Seq(edge, Math.nextUp(edge))) yield {
      var v2 = math.sqrt(target - v1 * v1)
      while (v1 * v1 + v2 * v2 < target) v2 = Math.nextUp(v2)
      while (v1 * v1 + v2 * v2 > target) v2 = Math.nextDown(v2)
      require(v1 * v1 + v2 * v2 == target, "no v2 weight hits the boundary")
      handGraph(5, 4, Seq((0, 2, 3, 4, u), (0, 1, 0, 1, v1), (1, 2, 1, 3, v2),
        (2, 3, 0, 1, m1), (3, 4, 1, 2, m2), (4, 5, 2, 3, m3)))
    }
  }

  /** Conflict graphs of every τ=1 candidate pair of a generated collection. */
  private def candidateGraphs(kind: TextGen.Kind, seed: Long): Seq[UsimGraph] = {
    val ctx = TextGen.context(kind, seed)
    val strings = TextGen.joinDataset(ctx, n = 100, seed = seed).strings
    val cfg = LocalJoin.Config(0.75, 1, SigAlgo.AUHeuristic)
    val order = LocalJoin.buildOrder(ctx.knowledge, strings, cfg.measures, cfg.q)
    val sigs = LocalJoin.signatures(ctx.knowledge, strings, order, cfg)
    LocalJoin.filterStage(sigs, sigs, 1, selfJoin = true)._2.map { case (i, j) =>
      Usim.graph(ctx.knowledge, strings(i), strings(j))
    }
  }

  test("solve equals its transcription, element order included") {
    val boundary = boundaryGraphs
    assert(referenceSolve(boundary(0)) != referenceSolve(boundary(1)))
    val collections = for (kind <- Seq(TextGen.MedLite, TextGen.WikiLite); seed <- Seq(3L, 31L))
      yield candidateGraphs(kind, seed)
    val instances = for (k <- 3 to 10; i <- 0 until 60) yield {
      val (kb, s, t) = TextGen.conflictInstance(k, 5000L + k * 1000 + i)
      Usim.graph(kb, s, t, MeasureSet.S)
    }
    val random = (0L until 500L).map(randomGraph)
    for (g <- boundary ++ collections.flatten ++ instances ++ random)
      assert(SquareImp.solve(g).toSeq == referenceSolve(g).toSeq)
  }

  test("greedy returns an independent set") {
    check(Gen.choose(0L, 1000L), n = 30) { seed =>
      val g = randomGraph(seed)
      assert(g.isIndependent(SquareImp.greedy(g).toSeq))
    }
  }

  test("solve returns an independent set") {
    check(Gen.choose(0L, 1000L), n = 30) { seed =>
      val g = randomGraph(seed)
      assert(g.isIndependent(SquareImp.solve(g).toSeq))
    }
  }

  test("solve returns a maximal set (no free vertex can be added)") {
    check(Gen.choose(0L, 1000L), n = 30) { seed =>
      val g = randomGraph(seed)
      val a = SquareImp.solve(g)
      for (v <- 0 until g.size if !a.contains(v))
        assert(a.exists(u => g.conflict(u, v)), s"vertex $v could be added")
    }
  }

  test("solve weight >= greedy weight") {
    check(Gen.choose(0L, 2000L), n = 30) { seed =>
      val g = randomGraph(seed)
      val gw = SquareImp.greedy(g).toSeq.map(g.weights).sum
      val sw = SquareImp.solve(g).toSeq.map(g.weights).sum
      assert(sw >= gw - 1e-12)
    }
  }

  test("solve is near-optimal on small random graphs (>= 1/2 of OPT, usually exact)") {
    var exactHits = 0
    var total = 0
    check(Gen.choose(0L, 500L), n = 40) { seed =>
      val g = randomGraph(seed)
      if (g.size <= 16) {
        val opt = bruteMaxWeightIS(g)
        val got = SquareImp.solve(g).toSeq.map(g.weights).sum
        assert(got >= opt / 2 - 1e-9, s"seed $seed: $got vs opt $opt")
        total += 1
        if (math.abs(got - opt) < 1e-9) exactHits += 1
      }
    }
    assert(total > 10)
    assert(exactHits.toDouble / total > 0.6, s"only $exactHits/$total exact")
  }

  test("SquareImp on Figure 2 prefers squared-weight heavy vertices") {
    val g = Figure2.graph
    val a = SquareImp.solve(g)
    // R1 (0.3) + R5? conflict on d. Max-weight IS is {R1, R4} = 0.39.
    val w = a.toSeq.map(g.weights).sum
    assert(math.abs(w - 0.39) < 1e-9)
  }

  test("empty graph yields empty solution") {
    val g = Usim.graph(Knowledge.empty, "aa", "zz", MeasureSet.J)
    assert(g.size == 0 && SquareImp.solve(g).isEmpty)
  }
}
