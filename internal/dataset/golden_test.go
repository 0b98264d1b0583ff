package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"plasmahd/internal/gen"
	"plasmahd/internal/graph"
	"plasmahd/internal/vec"
)

// goldenScale and goldenSeed fix the size and seed every generated source
// is pinned at: small enough that the whole table builds in well under a
// second, large enough that every generator branch (near-duplicates,
// planted patterns, spam blocks) runs.
const (
	goldenScale = 200
	goldenSeed  = 1
)

// datasetGolden pins the SHA-256 of every named source a session or an
// experiment starts from, at goldenScale and goldenSeed: a generator change
// that moves any byte fails here. The generators round every product, so
// no fused multiply-add can move them on another architecture; the math
// functions they call (rng.NormFloat64's Exp and Log) are not yet shown to
// agree across architectures, and a run there checks that too.
var datasetGolden = map[string]string{
	"corpus/orkut":                 "54920d8a53e7577e9ef46d19d7b021041cb1f6aca56dc616138680ab9fbc71aa",
	"corpus/rcv1":                  "c23cbeca432369f7af777910cf68a63da649df270f876d988e0ca38b524fc261",
	"corpus/rcv1_3k":               "2a502f7748421123ba47ef1b505302f4956c0335edcb3debb5f86e9477c37375",
	"corpus/twitter":               "4b44066e796f1a7969171dfded0d80ab6ea4865d1e95d6b9844730aea060d967",
	"corpus/twitterlinks":          "95b969851589db852b6c387835da4981d60d3823ca1d833f7c357505b5a2c965",
	"corpus/wikilinks":             "9f842f249d2bcc02114c0dd92fccdb0ef0922b1c8d812c34b2971753bdb7fe0d",
	"corpus/wikiwords100k":         "66b049a909548fab899e4df6126b476e2893d2a5fe3b850e14be9bb9e0edac34",
	"corpus/wikiwords200":          "305c49fc06534e5447fa46459012edd6d26393bb94d9a768fe4c784ff10e836e",
	"corpus/wikiwords500":          "361ace8bd1af2089e6e6e51c91adf80a76eead2c207ac6c01558d76c739aec94",
	"model/er":                     "cd7687e1c768eb3268e26eac2e994b0c8da5555b3b46aa3e8fe79f9a6a8280e4",
	"model/geom":                   "b08b9559baeeb2f325a0fbbc60a16dc4a0c2afff704849942292a7b38a5f2a2a",
	"model/pa":                     "4b0e12e977c435ab26762c954c6689c9afbd87f101b715363fde30b18bd9f0fc",
	"table/abalone":                "88f5d5df2d4b90eb35e4691178abd75e856bd0df76c5ea2f9942d0f4eadf4138",
	"table/adult":                  "62b8da8bc141580556a6d3fcec50323b203a5dc32b8097649854682a37637df1",
	"table/credit":                 "da155c42e5e5092b8349a067b76f3f98d08246cb6da6d4b02e1bf8bbda9e15b9",
	"table/d1":                     "6adbb4aa48495dd61b7276bafe4fd00c6f1aa10046dc753d873cd31d248bec87",
	"table/eighthr":                "dce9c1e57e6e1e7cbb9e803dbb99a7f26b8eb1b9fb9e665e6317a71007079351",
	"table/forestfires":            "2d2387e24f9933ab284ea6206dddb392b97fe3b19dc85d8364e75f680431f81a",
	"table/image":                  "e9afd2459ecb1a84d0212e031ee7ab4d4698c6ce9a5eaf72dc4df34a1c1816a6",
	"table/letter":                 "d406250b6c2d7a8bc5642ad36da8f66acb6992d16a7704ab9083346312a9e8ac",
	"table/mushroom":               "4632d82f9f92c951777d5903f26f4cd190818019df2713a6c5a63972d4400e86",
	"table/news":                   "4735a0a4ffe07cbeb5231ad35291ef3f56ac53c2d975ee85ace56434cdbb1590",
	"table/parkinsons":             "35fe0b6127ea103eb2a46629e96ce6755fde4db3a45fadf297e4d3c631bedd2f",
	"table/pima":                   "87cf33cd0f601019a425ec756cde937aff22580b7e064bfd022c7e429f0a78d8",
	"table/spambase":               "d753c4f737fc7a2ef861cf9a939caaa69ed39d3b9b6b16b5246a9425f190f256",
	"table/statlog":                "7fbe858c93339ebbde1bd12d9a247cd9a678bd63bf11d18b74efdd680c7b0ac5",
	"table/water-treatment":        "1f5dbf70c62f0af49945ba8fd4f036c6c2371dd94c037d0a3661587ac50990af",
	"table/waveform":               "711449c394ff336435ddbeab44f53f09656037566cca8355e16071f4aedc6247",
	"table/wdbc":                   "d921c00deab0326cd3275ed719bf403a7dfa82d39d0b41a50e6b957c7dd856a8",
	"table/wine":                   "5c66ebe70aca3dbe3363b59f6f1c4b51f23607cb59ecf7c3df6c0510ae89dc32",
	"table/winepc":                 "f232b0b9edc702c760b9a3db37fce528e780e622bb9442d304ec20e6e69a657c",
	"table/winered":                "d13a10804647c7f994237ca9db4dbf9a8c3a810df75a1c317c285743090206fd",
	"table/winewhite":              "08c1104dbcae1f4bbbe952ec2ae56076817d75e14531cee95e307244c017e03c",
	"table/yeast":                  "728a1b32ae74ef72eeb346b95797f686f43e19b17d4d94f4023d9bff1161554d",
	"tabledataset/abalone":         "684a4554244a0e120a3542a588782dfeb3c9ddf82e1fb04d2aa04ba02fb702a1",
	"tabledataset/adult":           "a767fdd581ec04c05e7190cc649efb9cd8bce019c0a6275b12e183fad9f12736",
	"tabledataset/credit":          "07b14cd6fd9a27b7f338da24fb84068f5b4eb11999c7c92eac86285c60c6f57b",
	"tabledataset/d1":              "078a65a1f6a6ea06303bdfd90bd1bc3092e429c2f88f20b0df58bb5c4a1fcdd2",
	"tabledataset/eighthr":         "bfa2fdcb0ec7592ef3dd6b50c5051ce7bb069f07f6894e168c0774be3e03ace9",
	"tabledataset/forestfires":     "4e8db271e32f20dc4c7f6b83f748fc291365996b2528186d70c124dfd49c340b",
	"tabledataset/image":           "a090e5c7cde8ac58f96ad256b4ddd1caf7d5a918297d5ac9ff52329e073a684a",
	"tabledataset/letter":          "f55b3b1d255ae9a56d81ec9820058b1b2f2f67e5424f5a1cfdb3f804f620855c",
	"tabledataset/mushroom":        "5d4fd33651b07890aa27bdc46ba8b09e812d6315b48e2ca0dcc0b99bdbcc6ff4",
	"tabledataset/news":            "9c9e1568dda33cb9d57c9aea4aad2efa139a5975009dbd1f8d0b10d9b1f8d324",
	"tabledataset/parkinsons":      "6d538c45f9ed8febfe164ac2fcc4d186561d6dcfe8efb860e12e66e1d07b95c5",
	"tabledataset/pima":            "554ce71b18ac62054233023774a8daebaf750893f4650eed06f56ff069f9774c",
	"tabledataset/spambase":        "d68d1c0603faeafdaf9d02aafde4c8b9fe7d6b97f9da3d549a2bd78fc7524a0a",
	"tabledataset/statlog":         "a505b964304695677aebc2af7f2fb7c3622c9de1de638609a6e82ee45cf785bf",
	"tabledataset/water-treatment": "9aa982354523daa55a07f977acda5b2036f1eba5e732ec6a71b07be0ce7324ac",
	"tabledataset/waveform":        "9650faa56931b99205760c4157ac36da96a4c2ac1ea6c7be4b1d2eb2870cdd97",
	"tabledataset/wdbc":            "031e191b3e1d4aed5092c02975047889228f55490a091f20a0f1ffe7c94ac806",
	"tabledataset/wine":            "bbe2785c0fe2f5b72a52a978a5280097bd67aa6c9eeafff4c90037ac78e30377",
	"tabledataset/winepc":          "dd8894c5e5de0f3b00f3eeaf3f378cefaffd1812c08b7133995be7da76090838",
	"tabledataset/winered":         "57c34bc9b67df26af4abf50d4b9532b9a0a344af10afc2478faf6a996db155ae",
	"tabledataset/winewhite":       "06415d7d0441553be58234394f84fc2745709f5a869664cbb85e8854ecea8fd5",
	"tabledataset/yeast":           "7423702ca031d6331ff7aaa2d5250d9b6ac7d8ff2bb7f8498709fddd0a49b056",
	"trans/accidents":              "06c2d44e0ad2a3f615e3157654601922fd1e6f25468422aa4f3c5223e2897040",
	"trans/adult":                  "1f2d060a1e02f96af9205b90c87010acefe7646b635e56b586dbf8f8af08e617",
	"trans/anneal":                 "be5f484ee2d53e18acf761c8b7fc74edf48891f8f89745d90b3e4a46c199fdfb",
	"trans/breast":                 "25294a5d13351f1a6576b47579dbf0f9f0950caf8504a1c82ebf50680cf2f81b",
	"trans/iris":                   "56c611686d46743af3a9691d2a4eaa97e9a9b4aec4ab6d27327f37d036cea815",
	"trans/kosarak":                "047951a09a92b7082fb3072515d26a447de33c9c33236752426823fa45c461eb",
	"trans/mushroom":               "22e9173f158281549b6ce1a3e7f988edcf909c93164e2abb99f208fd6e53da18",
	"trans/pageblocks":             "2612399014dab852d44770fce0a5867d5ea30a5b894b577921dd4978bc998464",
	"trans/tictactoe":              "761bef4493c14198554634443814a230c05276e39260740e3935eea43d8ab31b",
	"trans/twitterwcs":             "a8d3a72b8e083754204fcab07bc3e05c5b99de55aa5cea0409ccfabfd6636a75",
	"webgraph/arabic2005":          "a1582ac5e5a44eee6b80a44d02f8c18f4f388c2bd11b52d6885c12c17887411f",
	"webgraph/eu2005":              "2bd78399e07168b433416caea153b193926710ec26763cd8e0747746f9df4aeb",
	"webgraph/it2004":              "df27c3858bfe3f1dc029ac215bd0900dc20bca7a105d042640a0903b67c056d6",
	"webgraph/sk2005":              "32e7e3695a97ec604732bfc9cd241b06b23f53393045bfed7ee520c4378de430",
	"webgraph/uk2006":              "c332f9549c5db04592de8c25a7e4063c18eea75b0679d2d01b3646e24f8b585d",
}

// digest accumulates a canonical little-endian encoding of generated data.
type digest []byte

func (d *digest) u64(v uint64)  { *d = binary.LittleEndian.AppendUint64(*d, v) }
func (d *digest) int(v int)     { d.u64(uint64(int64(v))) }
func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d *digest) str(s string)  { d.int(len(s)); *d = append(*d, s...) }

func (d digest) sum() string {
	h := sha256.Sum256(d)
	return hex.EncodeToString(h[:])
}

func hashDataset(ds *vec.Dataset) string {
	var d digest
	d.str(ds.Name)
	d.int(ds.Dim)
	d.int(int(ds.Measure))
	d.int(len(ds.Rows))
	for _, r := range ds.Rows {
		d.int(len(r.Indices))
		for _, ix := range r.Indices {
			d.int(int(ix))
		}
		d.int(len(r.Values))
		for _, v := range r.Values {
			d.f64(v)
		}
	}
	return d.sum()
}

func hashTable(tab *Table) string {
	var d digest
	d.str(tab.Name)
	d.int(len(tab.X))
	for i, row := range tab.X {
		d.int(tab.Labels[i])
		d.int(len(row))
		for _, v := range row {
			d.f64(v)
		}
	}
	return d.sum()
}

func hashTransactions(tr *Transactions) string {
	var d digest
	d.str(tr.Name)
	d.int(tr.Items)
	d.int(len(tr.Rows))
	for _, row := range tr.Rows {
		d.int(len(row))
		for _, it := range row {
			d.int(it)
		}
	}
	d.int(len(tr.Labels))
	for _, l := range tr.Labels {
		d.int(l)
	}
	return d.sum()
}

func hashGraph(g *graph.Graph) string {
	var d digest
	d.int(g.N())
	for v := 0; v < g.N(); v++ {
		nbrs := g.Neighbors(v)
		d.int(len(nbrs))
		for _, u := range nbrs {
			d.int(int(u))
		}
	}
	return d.sum()
}

// generatedHashes builds every named source and hashes it, keyed
// "kind/name": each table both as generated and as the cosine dataset a
// session loads, each corpus, the toy set, each transactional set, each
// web graph and each graph model.
func generatedHashes(t *testing.T) map[string]string {
	t.Helper()
	got := map[string]string{}
	for _, name := range TableNames() {
		tab, err := NewTableScaled(name, goldenScale, goldenSeed)
		if err != nil {
			t.Fatal(err)
		}
		got["table/"+name] = hashTable(tab)
		got["tabledataset/"+name] = hashDataset(tab.Dataset())
	}
	toy := Toy50(goldenSeed)
	got["table/d1"] = hashTable(toy)
	got["tabledataset/d1"] = hashDataset(toy.Dataset())
	for _, name := range CorpusNames() {
		ds, err := NewCorpusScaled(name, goldenScale, goldenSeed)
		if err != nil {
			t.Fatal(err)
		}
		got["corpus/"+name] = hashDataset(ds)
	}
	for _, name := range TransNames() {
		tr, err := NewTransactionsScaled(name, goldenScale, goldenSeed)
		if err != nil {
			t.Fatal(err)
		}
		got["trans/"+name] = hashTransactions(tr)
	}
	for _, name := range GraphNames() {
		tr, err := NewWebGraphScaled(name, goldenScale, goldenSeed)
		if err != nil {
			t.Fatal(err)
		}
		got["webgraph/"+name] = hashTransactions(tr)
	}
	for _, m := range gen.Models() {
		got["model/"+string(m)] = hashGraph(gen.Generate(m, goldenScale, 4*goldenScale, goldenSeed))
	}
	return got
}

// TestGeneratedDatasetsGolden fails if any named source's bytes drift from
// the pinned hash, or if a source is added or removed without its hash.
func TestGeneratedDatasetsGolden(t *testing.T) {
	got := generatedHashes(t)
	for key, h := range got {
		if want, ok := datasetGolden[key]; !ok {
			t.Errorf("%s: no pinned hash (got %q)", key, h)
		} else if h != want {
			t.Errorf("%s: hash %s, pinned %s", key, h, want)
		}
	}
	for key := range datasetGolden {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: pinned but no longer generated", key)
		}
	}
}
