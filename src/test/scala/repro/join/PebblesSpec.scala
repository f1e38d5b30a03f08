package repro.join

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.TextGen

class PebblesSpec extends AnyFunSuite {
  val k: Knowledge = Knowledge.figure1

  private def pebblesOf(s: String, m: MeasureSet = MeasureSet.TJS): Vector[PebbleInstance] = {
    val toks = Tokenizer.tokens(s)
    Pebbles.generate(k, Segments.wellDefined(k, toks), m, Measures.DefaultQ)
  }

  test("Table 2: Jaccard pebbles of 'coffee' are its five bigrams, weight 1/5") {
    val ps = pebblesOf("coffee", MeasureSet.J)
    assert(ps.map(_.key).toSet == Set("g:co", "g:of", "g:ff", "g:fe", "g:ee"))
    assert(ps.forall(p => math.abs(p.weight - 0.2) < 1e-12))
  }

  test("Table 2: taxonomy pebbles of 'coffee' are node+ancestors, weight 1/3") {
    val ps = pebblesOf("coffee", MeasureSet.T)
    assert(ps.length == 3) // coffee, food, wikipedia
    assert(ps.forall(p => math.abs(p.weight - 1.0 / 3) < 1e-12))
    assert(ps.forall(_.key.startsWith("t:")))
  }

  test("Table 2: synonym pebble of 'cafe' is the rule lhs 'coffee shop', weight C(R)=1") {
    val ps = pebblesOf("cafe", MeasureSet.S)
    assert(ps == Vector(PebbleInstance("s:coffee shop", 1.0, 0, 'S')))
  }

  test("Table 2: Jaccard pebbles of 'cafe' weigh 1/3") {
    val ps = pebblesOf("cafe", MeasureSet.J)
    assert(ps.map(_.key).toSet == Set("g:ca", "g:af", "g:fe"))
    assert(ps.forall(p => math.abs(p.weight - 1.0 / 3) < 1e-12))
  }

  test("both sides of a rule emit the same lhs pebble key") {
    val lhsSide = pebblesOf("coffee shop", MeasureSet.S).map(_.key)
    val rhsSide = pebblesOf("cafe", MeasureSet.S).map(_.key)
    assert(lhsSide.contains("s:coffee shop") && rhsSide.contains("s:coffee shop"))
  }

  test("Example 6: string T generates exactly 23 pebbles") {
    // espresso: 7 gram occurrences + 5 ancestor pebbles; cafe: 3 grams +
    // 1 synonym; helsinki: 7 grams. Total 23.
    val ps = pebblesOf("espresso cafe Helsinki")
    assert(ps.length == 23, ps.groupBy(_.measure).view.mapValues(_.size).toMap.toString)
  }

  test("gram pebbles keep multiplicity (espresso has 'es' twice, weight 1/7)") {
    val ps = pebblesOf("espresso", MeasureSet.J)
    assert(ps.length == 7)
    assert(ps.count(_.key == "g:es") == 2)
    assert(ps.forall(p => math.abs(p.weight - 1.0 / 7) < 1e-12))
  }

  test("taxonomy pebbles of related entities share ancestor keys") {
    val latte = pebblesOf("latte", MeasureSet.T).map(_.key).toSet
    val espresso = pebblesOf("espresso", MeasureSet.T).map(_.key).toSet
    assert((latte intersect espresso).size == 4) // coffee drinks, coffee, food, root
  }

  test("keyOrder ranks rare keys first") {
    val ord = Pebbles.keyOrder(Iterator(Seq("a", "b"), Seq("b"), Seq("b", "c")))
    assert(ord("b") == 2) // most frequent last
    assert(Set(ord("a"), ord("c")) == Set(0, 1))
  }

  test("keyOrder counts a key once per string") {
    // "a" twice in one string, as two segments' pebbles can share a key
    val ord = Pebbles.keyOrder(Iterator(Seq("a", "a"), Seq("b")))
    assert(ord.size == 2) // both frequency 1; order by key
    assert(ord("a") == 0 && ord("b") == 1)
  }

  test("sorted applies the global order then key for ties") {
    // SignatureContext.pebbles is B: the order's ranks first, keys the
    // order lacks after them, alphabetically
    def keys(order: Map[String, Int]) =
      SignatureContext(PreparedString(k, Vector("coffee")), MeasureSet.J, Measures.DefaultQ, order)
        .pebbles.map(_.key)
    assert(keys(Map("g:ff" -> 0, "g:co" -> 1, "g:of" -> 2, "g:fe" -> 3, "g:ee" -> 4)) ==
      Vector("g:ff", "g:co", "g:of", "g:fe", "g:ee"))
    assert(keys(Map.empty) == Vector("g:co", "g:ee", "g:fe", "g:ff", "g:of"))
    assert(keys(Map("g:of" -> 0)) == Vector("g:of", "g:co", "g:ee", "g:fe", "g:ff"))
  }

  test("context pebbles and ranks follow the (rank, key, segment, measure) sort") {
    for (kind <- Seq(TextGen.MedLite, TextGen.WikiLite); seed <- Seq(3L, 31L)) {
      val ctx = TextGen.context(kind, seed)
      val kk = ctx.knowledge
      val strings = TextGen.joinDataset(ctx, n = 60, seed = seed).strings
      val order = LocalJoin.buildOrder(kk, strings, MeasureSet.TJS, 2)
      for ((s, o) <- strings.map(_ -> order) ++ strings.take(10).map(_ -> Map.empty[String, Int])) {
        val toks = Tokenizer.tokens(s)
        val c = SignatureContext(PreparedString(kk, toks), MeasureSet.TJS, 2, o)
        val want = Pebbles.generate(kk, Segments.wellDefined(kk, toks), MeasureSet.TJS, 2)
          .sortBy(p => (o.getOrElse(p.key, Int.MaxValue), p.key, p.segIdx, p.measure))
        assert(c.pebbles == want, s"${kind.name} seed $seed: $s")
        val missing = want.map(_.key).filterNot(o.contains).distinct.sorted.zipWithIndex.toMap
        assert(c.ranks.toSeq == want.map(p => o.getOrElse(p.key, o.size + missing(p.key))), s)
      }
    }
  }

  test("measure restriction limits generated pebble types") {
    val ps = pebblesOf("espresso cafe Helsinki", MeasureSet.TJ)
    assert(!ps.exists(_.measure == 'S'))
    assert(ps.exists(_.measure == 'T') && ps.exists(_.measure == 'J'))
  }
}
