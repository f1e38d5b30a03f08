package repro.join

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

class MinPartitionSpec extends AnyFunSuite {
  val k: Knowledge = Knowledge.figure1

  private def mp(s: String): Int = {
    val toks = Tokenizer.tokens(s)
    MinPartition.size(Segments.wellDefined(k, toks), toks.length)
  }

  test("Example 6: m = ceil(3/(ln 1 + 1)) = 3 for 'espresso cafe Helsinki'") {
    assert(mp("espresso cafe Helsinki") == 3)
  }

  test("single token gives m = 1") {
    assert(mp("espresso") == 1)
  }

  test("empty string gives m = 0") {
    assert(mp("") == 0)
  }

  test("multi-token segments shrink the greedy cover") {
    // "coffee shop latte": greedy picks {coffee shop} then {latte} → |A|=2,
    // largest segment n=2 → m = ceil(2/(ln 2 + 1)) = 2.
    assert(mp("coffee shop latte") == 2)
  }

  test("m is a lower bound on any partition size") {
    for (s <- Seq("coffee shop latte Helsingki", "espresso cafe Helsinki", "apple cake gateau")) {
      val toks = Tokenizer.tokens(s)
      val segs = Segments.wellDefined(k, toks)
      // all partitions have at least ceil(len / maxSegLen) >= m segments
      val maxLen = segs.map(_.length).max
      assert(mp(s) <= math.ceil(toks.length.toDouble / maxLen).toInt ||
             mp(s) <= toks.length)
    }
  }

  test("greedyCover covers every token") {
    val toks = Tokenizer.tokens("coffee shop latte Helsingki")
    val cover = MinPartition.greedyCover(Segments.wellDefined(k, toks), toks.length)
    val covered = cover.flatMap(s => s.start until s.end).toSet
    assert(covered == (0 until toks.length).toSet)
  }

  test("greedy prefers the largest uncovered gain") {
    val toks = Tokenizer.tokens("coffee shop latte")
    val cover = MinPartition.greedyCover(Segments.wellDefined(k, toks), toks.length)
    assert(cover.head.tokens == Vector("coffee", "shop"))
  }

  test("strings with no knowledge hits fall back to singletons") {
    assert(mp("xx yy zz") == 3)
  }
}
