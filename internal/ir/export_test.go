package ir

// The reference parser, for the external differential tests of
// parse_test.go.
var (
	OracleParse       = oracleParse
	OracleParseModule = oracleParseModule
)
